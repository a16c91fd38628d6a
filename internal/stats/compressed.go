package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Compressed is a mergeable run-length-compressed empirical
// distribution: the streaming counterpart of Empirical for group
// threshold derivation when the member columns cannot all be resident
// at once. It stores each distinct sample value once, together with
// the cumulative sample count at or below it, so quantiles are exact
// order-statistic lookups over the virtual concatenated-and-sorted
// sample array — bit-identical to MergeEmpiricals + QuantileSorted on
// the same multiset — while memory scales with the number of distinct
// values (feature columns are window counts with heavy repetition),
// not the number of samples.
//
// The zero value is an empty accumulator. Folding is commutative and
// associative: any interleaving of AddSorted/Merge calls over the same
// multiset of samples yields the same accumulator state, which is what
// makes the parallel shard fold deterministic regardless of worker
// scheduling.
type Compressed struct {
	uniq []float64 // distinct sample values, ascending
	cum  []int64   // cum[i] = number of samples <= uniq[i]

	// The previous generation's buffers, recycled by the merge's
	// copy-and-swap so steady-state folding allocates only on growth.
	uniqScratch []float64
	cumScratch  []int64

	// tree holds AddEmpiricals' per-level accumulators, kept between
	// calls.
	tree []Compressed
}

// N returns the total number of samples folded in.
func (c *Compressed) N() int64 {
	if len(c.cum) == 0 {
		return 0
	}
	return c.cum[len(c.cum)-1]
}

// NumDistinct returns the number of distinct sample values — the
// accumulator's memory footprint driver.
func (c *Compressed) NumDistinct() int { return len(c.uniq) }

// AddSorted folds an already-sorted, NaN-free sample column into the
// accumulator. The input is validated under the same contract as
// Empirical.AdoptSorted and is not retained. An empty column is a
// no-op, mirroring MergeEmpiricals skipping empty members.
func (c *Compressed) AddSorted(col []float64) error {
	if len(col) == 0 {
		return nil
	}
	if err := CheckSorted(col); err != nil {
		return err
	}
	c.mergeCol(col)
	return nil
}

// AddEmpiricals folds a batch of distributions in one step. The
// members are merged among themselves first, by halves: each member's
// sorted column is run-length compressed, then sibling runs are merged
// pairwise up a balanced tree into c, so a batch of k members takes
// O(log k) passes over (deduplicated) runs instead of k passes over
// c's runs. The distributions are not retained. Nil and empty members
// are skipped, exactly as MergeEmpiricals skips them.
func (c *Compressed) AddEmpiricals(es []*Empirical) {
	for depth := bits.Len(uint(len(es))); len(c.tree) < depth; {
		c.tree = append(c.tree, Compressed{})
	}
	foldHalves(c, c.tree, es)
}

// foldHalves folds es into dst, using scratch[0] for the right half's
// runs and scratch[1:] for the deeper levels.
func foldHalves(dst *Compressed, scratch []Compressed, es []*Empirical) {
	if len(es) <= 1 {
		// Empirical's invariant makes every column sorted and NaN-free.
		if len(es) == 1 && es[0] != nil && len(es[0].sorted) > 0 {
			dst.mergeCol(es[0].sorted)
		}
		return
	}
	mid := len(es) / 2
	foldHalves(dst, scratch, es[:mid])
	right := &scratch[0]
	right.Reset()
	foldHalves(right, scratch[1:], es[mid:])
	dst.Merge(right)
}

// Reset empties the accumulator, keeping its buffers for reuse.
func (c *Compressed) Reset() {
	c.uniq, c.cum = c.uniq[:0], c.cum[:0]
}

// mergeCol two-pointer merges a sorted raw column into the (uniq, cum)
// runs, writing the next generation into the scratch buffers and
// swapping.
func (c *Compressed) mergeCol(col []float64) {
	uniq, cum := c.uniq, c.cum
	out := c.uniqScratch[:0]
	outC := c.cumScratch[:0]
	i, j := 0, 0
	var consumed int64 // col samples <= current value
	for i < len(uniq) || j < len(col) {
		var v float64
		switch {
		case i >= len(uniq):
			v = col[j]
		case j >= len(col):
			v = uniq[i]
		case uniq[i] <= col[j]:
			v = uniq[i]
		default:
			v = col[j]
		}
		acc := int64(0)
		if i < len(uniq) && uniq[i] == v {
			acc = cum[i]
			i++
		} else if i > 0 {
			acc = cum[i-1]
		}
		for j < len(col) && col[j] == v {
			j++
			consumed++
		}
		out = append(out, v)
		outC = append(outC, acc+consumed)
	}
	c.uniq, c.uniqScratch = out, uniq[:0]
	c.cum, c.cumScratch = outC, cum[:0]
}

// Merge folds another accumulator's entire multiset into c. o is left
// unchanged; merging with an empty or nil accumulator is a no-op.
func (c *Compressed) Merge(o *Compressed) {
	if o == nil || len(o.uniq) == 0 {
		return
	}
	uniq, cum := c.uniq, c.cum
	oU, oC := o.uniq, o.cum
	out := c.uniqScratch[:0]
	outC := c.cumScratch[:0]
	i, j := 0, 0
	for i < len(uniq) || j < len(oU) {
		var v float64
		switch {
		case i >= len(uniq):
			v = oU[j]
		case j >= len(oU):
			v = uniq[i]
		case uniq[i] <= oU[j]:
			v = uniq[i]
		default:
			v = oU[j]
		}
		a, b := int64(0), int64(0)
		if i < len(uniq) && uniq[i] == v {
			a = cum[i]
			i++
		} else if i > 0 {
			a = cum[i-1]
		}
		if j < len(oU) && oU[j] == v {
			b = oC[j]
			j++
		} else if j > 0 {
			b = oC[j-1]
		}
		out = append(out, v)
		outC = append(outC, a+b)
	}
	c.uniq, c.uniqScratch = out, uniq[:0]
	c.cum, c.cumScratch = outC, cum[:0]
}

// at returns the k-th (0-based) order statistic of the virtual
// expanded sample array.
func (c *Compressed) at(k int64) float64 {
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] > k })
	return c.uniq[i]
}

// Quantile computes the Hyndman-Fan type 7 q-quantile of the folded
// multiset, bit-identical to QuantileSorted over the fully expanded
// sorted sample array: the order statistics it interpolates between
// are the same float64 values, so the arithmetic is
// operand-for-operand the same.
func (c *Compressed) Quantile(q float64) (float64, error) {
	n := c.N()
	if n == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %g outside [0, 1]", q)
	}
	if n == 1 {
		return c.at(0), nil
	}
	h := q * float64(n-1)
	lo := int64(math.Floor(h))
	if lo >= n-1 {
		return c.at(n - 1), nil
	}
	frac := h - float64(lo)
	a := c.at(lo)
	return a + frac*(c.at(lo+1)-a), nil
}

// NewFrontierCompressed builds the threshold frontier of the folded
// multiset: bit-identical to NewFrontier over MergeEmpiricals of the
// same samples. The accumulator's (uniq, cum) runs are exactly the
// run-length compression Frontier.Reset would compute from the merged
// sorted column — pcdf[i] = float64(count <= uniq[i-1]) / n, the same
// division on the same integers — and the shifted-quantile ladder
// interpolates the same order statistics, so the resulting sweep
// visits the same (t, fp, fn) sequence.
func NewFrontierCompressed(c *Compressed, attack []float64) (*Frontier, error) {
	if c == nil || c.N() == 0 {
		return nil, ErrNoSamples
	}
	f := &Frontier{attack: attack}
	for _, q := range frontierQuantiles {
		base, err := c.Quantile(q)
		if err != nil {
			return nil, err
		}
		for _, b := range attack {
			f.shifted = append(f.shifted, base+b)
		}
	}
	sort.Float64s(f.shifted)
	nF := float64(c.N())
	f.uniq = append([]float64(nil), c.uniq...)
	f.pcdf = make([]float64, 0, len(c.cum)+1)
	f.pcdf = append(f.pcdf, 0)
	for _, cnt := range c.cum {
		f.pcdf = append(f.pcdf, float64(cnt)/nF)
	}
	return f, nil
}
