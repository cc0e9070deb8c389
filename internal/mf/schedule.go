package mf

import (
	"fmt"
	"math"

	"hccmf/internal/sparse"
)

// Schedule produces the learning rate for a given 0-based epoch. The
// paper's experiments fix γ = 0.005, but cuMF_SGD's reference
// implementation decays the rate, and decaying schedules are what
// production deployments of SGD-MF run; both are provided.
type Schedule interface {
	// Gamma reports the learning rate for the epoch.
	Gamma(epoch int) float32
	// Name identifies the schedule in reports.
	Name() string
}

// Constant is the paper's fixed learning rate.
type Constant struct {
	Rate float32
}

// Gamma implements Schedule.
func (c Constant) Gamma(int) float32 { return c.Rate }

// Name implements Schedule.
func (c Constant) Name() string { return fmt.Sprintf("const(%g)", c.Rate) }

// InverseDecay is cuMF_SGD's schedule: γ_t = γ0 / (1 + β·t^1.5).
type InverseDecay struct {
	Gamma0 float32
	Beta   float32
}

// Gamma implements Schedule.
func (d InverseDecay) Gamma(epoch int) float32 {
	if epoch < 0 {
		epoch = 0
	}
	t := float64(epoch)
	return d.Gamma0 / float32(1+float64(d.Beta)*math.Pow(t, 1.5))
}

// Name implements Schedule.
func (d InverseDecay) Name() string {
	return fmt.Sprintf("inverse(%g,%g)", d.Gamma0, d.Beta)
}

// BoldDriver adapts the rate to observed loss: grow slowly while the loss
// falls, cut sharply when it rises. Feed it the objective after each epoch
// via Observe.
type BoldDriver struct {
	// Rate is the current learning rate (set to the initial rate).
	Rate float32
	// Grow is the multiplicative increase on improvement (default 1.05).
	Grow float32
	// Shrink is the multiplicative cut on regression (default 0.5).
	Shrink float32

	prevLoss float64
	seen     bool
}

// Gamma implements Schedule.
func (b *BoldDriver) Gamma(int) float32 { return b.Rate }

// Name implements Schedule.
func (b *BoldDriver) Name() string { return "bold-driver" }

// Observe updates the rate from the post-epoch loss.
func (b *BoldDriver) Observe(loss float64) {
	grow := b.Grow
	if grow <= 1 {
		grow = 1.05
	}
	shrink := b.Shrink
	if shrink <= 0 || shrink >= 1 {
		shrink = 0.5
	}
	if b.seen && loss > b.prevLoss {
		b.Rate *= shrink
	} else if b.seen {
		b.Rate *= grow
	}
	b.prevLoss = loss
	b.seen = true
}

// Cache-blocked Q-tile traversal for the parameter server's async
// streams (internal/ps/async.go, DESIGN.md §15). A stream's item slice of
// Q can be far larger than L2 on real matrices; a row-sorted traversal
// streams P nicely while revisiting Q rows long after they were evicted.
// tileOrder reorders a chunk's entries into column tiles sized so a
// tile's Q rows fit the budget, (row, col) within each tile: every Q row
// is loaded into cache at most once per tile instead of once per touching
// row segment. The mf engines keep their own traversal orders.

// tileBytesDefault is a conservative per-core slice of L2 (typical
// client/server cores have 0.5–2 MiB per core); the Q tile must share the
// cache with the streaming P rows and the entry stream itself.
const tileBytesDefault = 256 << 10

// tileCols reports how many consecutive columns fit one Q tile of the
// given byte budget at factor dimension k (4 bytes per float32), never
// less than one column.
func tileCols(k, budget int) int {
	if k <= 0 {
		return 1
	}
	tc := budget / (4 * k)
	if tc < 1 {
		tc = 1
	}
	return tc
}

// tileOrder reorders entries in place into (tile, row, col) order, where
// tile = (col − colLo) / tileCols(k, budget), and returns the tile count.
// Every entry's column must be ≥ colLo. It is an LSD radix sort of three
// stable counting passes — column, then row, then tile — so it runs in
// time linear in the entries plus the row, column and tile key ranges,
// and entries with equal (tile, row, col) keys keep their input order.
// Within a tile entries are (row, col)-sorted: the same P-streaming order
// the default traversal has, just confined to the tile. Cold path — it
// runs once per chunk build, so it allocates its scratch locally.
func tileOrder(entries []sparse.Rating, colLo, k, budget int) int {
	if len(entries) == 0 {
		return 0
	}
	tc := tileCols(k, budget)
	minU, maxU := entries[0].U, entries[0].U
	minI, maxI := entries[0].I, entries[0].I
	for _, e := range entries[1:] {
		minU, maxU = min(minU, e.U), max(maxU, e.U)
		minI, maxI = min(minI, e.I), max(maxI, e.I)
	}
	ntiles := (int(maxI)-colLo)/tc + 1
	tmp := make([]sparse.Rating, len(entries))

	// One count buffer serves all three passes, so it spans the widest of
	// their key ranges: columns, rows and tiles. The tile count depends on
	// maxI's distance from colLo, not on the column span, so a sparse
	// chunk far from colLo can need more tile slots than column slots.
	next := make([]int, max(int(maxI-minI)+1, int(maxU-minU)+1, ntiles)+1)

	// Pass 1: by column, into tmp.
	cols := next[:int(maxI-minI)+2]
	for _, e := range entries {
		cols[e.I-minI+1]++
	}
	prefixSum(cols)
	for _, e := range entries {
		j := e.I - minI
		tmp[cols[j]] = e
		cols[j]++
	}

	// Pass 2: by row, back into entries.
	rows := next[:int(maxU-minU)+2]
	clear(rows)
	for _, e := range tmp {
		rows[e.U-minU+1]++
	}
	prefixSum(rows)
	for _, e := range tmp {
		j := e.U - minU
		entries[rows[j]] = e
		rows[j]++
	}

	// Pass 3: by tile, through tmp.
	if ntiles == 1 {
		return 1
	}
	tiles := next[:ntiles+1]
	clear(tiles)
	for _, e := range entries {
		tiles[(int(e.I)-colLo)/tc+1]++
	}
	prefixSum(tiles)
	for _, e := range entries {
		j := (int(e.I) - colLo) / tc
		tmp[tiles[j]] = e
		tiles[j]++
	}
	copy(entries, tmp)
	return ntiles
}

// prefixSum turns per-key counts, stored one slot past each key, into
// each key's starting offset.
func prefixSum(c []int) {
	for i := 1; i < len(c); i++ {
		c[i] += c[i-1]
	}
}

// TileOrder is tileOrder at the default budget over one column range
// starting at colLo. The parameter server's async streams order each item
// slice's entries with it.
func TileOrder(entries []sparse.Rating, colLo, k int) int {
	return tileOrder(entries, colLo, k, tileBytesDefault)
}

// RunScheduled executes n epochs with a per-epoch learning rate from the
// schedule, holding the regularisers fixed. BoldDriver schedules are fed
// the training loss after each epoch.
func (t *Trainer) RunScheduled(f *Factors, n int, s Schedule) {
	for i := 0; i < n; i++ {
		h := t.Hyper
		h.Gamma = s.Gamma(t.epochs)
		t.Engine.Epoch(f, t.Train, h)
		t.epochs++
		if bd, ok := s.(*BoldDriver); ok {
			bd.Observe(Loss(f, t.Train.Entries, t.Hyper))
		}
	}
}
