// Package trace renders the per-phase timing HCC-MF reports from phase
// spans (obs.Event, one track per worker, Name a obs.Phase): per-worker
// cumulative pull/compute/push/sync times — the raw data behind the
// paper's Figure 8 bars and Table 5/6 rows — and the ASCII Gantt of the
// Figure 5 timing sequences. Every function is a pure view over a span
// slice; the spans themselves are recorded by whoever owns the clock.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hccmf/internal/obs"
)

// Row is one worker's line in a report.
type Row struct {
	Worker  string
	Pull    float64
	Compute float64
	Push    float64
	Sync    float64
}

// Total reports the row sum.
func (r Row) Total() float64 { return r.Pull + r.Compute + r.Push + r.Sync }

// Rows sums each track's phase durations in slice order and returns one
// row per track, sorted by worker name for stable reports. Spans whose
// Name is not a phase add nothing.
func Rows(events []obs.Event) []Row {
	index := map[string]int{}
	var out []Row
	for _, ev := range events {
		i, ok := index[ev.Track]
		if !ok {
			i = len(out)
			index[ev.Track] = i
			out = append(out, Row{Worker: ev.Track})
		}
		r := &out[i]
		switch d := ev.Duration(); ev.Name {
		case obs.Pull.String():
			r.Pull += d
		case obs.Compute.String():
			r.Compute += d
		case obs.Push.String():
			r.Push += d
		case obs.Sync.String():
			r.Sync += d
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Format renders a fixed-width table of rows (Figure 8 style).
func Format(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s %10s\n",
		"worker", "pull(s)", "comp(s)", "push(s)", "sync(s)", "total(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			r.Worker, r.Pull, r.Compute, r.Push, r.Sync, r.Total())
	}
	return b.String()
}

// ByTrack returns a copy of events ordered by (track, start).
func ByTrack(events []obs.Event) []obs.Event {
	out := append([]obs.Event(nil), events...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// glyph is the Gantt fill character per phase name.
func glyph(name string) byte {
	switch name {
	case obs.Pull.String():
		return '<'
	case obs.Compute.String():
		return '#'
	case obs.Push.String():
		return '>'
	case obs.Sync.String():
		return 'S'
	default:
		return '?'
	}
}

// Gantt renders the [from, to) window of events as an ASCII chart with
// one row per track and `width` columns — the textual equivalent of the
// paper's Figure 5 (`<` pull, `#` compute, `>` push, `S` sync). Spans are
// clipped to the window and painted in ByTrack order, so later spans
// overwrite earlier ones in a cell; sub-cell spans still paint one cell so
// short transfers stay visible.
func Gantt(events []obs.Event, from, to float64, width int) string {
	if width < 10 {
		width = 10
	}
	if to <= from {
		return ""
	}
	rows := map[string][]byte{}
	var workers []string
	scale := float64(width) / (to - from)
	for _, ev := range ByTrack(events) {
		if ev.End <= from || ev.Start >= to {
			continue
		}
		row, ok := rows[ev.Track]
		if !ok {
			row = []byte(strings.Repeat(".", width))
			rows[ev.Track] = row
			workers = append(workers, ev.Track)
		}
		lo := int((math.Max(ev.Start, from) - from) * scale)
		hi := int((math.Min(ev.End, to) - from) * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for i := lo; i < hi; i++ {
			row[i] = glyph(ev.Name)
		}
	}
	sort.Strings(workers)
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %.4fs .. %.4fs   (< pull, # compute, > push, S sync)\n", from, to)
	for _, w := range workers {
		fmt.Fprintf(&b, "%-16s |%s|\n", w, rows[w])
	}
	return b.String()
}
