package trace

import (
	"strings"
	"testing"

	"hccmf/internal/obs"
)

// span builds one simulated phase span.
func span(worker string, p obs.Phase, start, end float64) obs.Event {
	return obs.Event{Proc: obs.ProcSim, Track: worker, Cat: "simengine",
		Name: p.String(), Start: start, End: end}
}

func TestRowsSumPhasesPerTrack(t *testing.T) {
	rows := Rows([]obs.Event{
		span("gpu0", obs.Pull, 0, 1.5),
		span("gpu0", obs.Compute, 1.5, 4.5),
		span("gpu0", obs.Pull, 4.5, 5),
		span("cpu1", obs.Sync, 1, 1.25),
		{Track: "gpu0", Name: "epoch", Start: 0, End: 9},
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	gpu := rows[1]
	if gpu.Worker != "gpu0" || gpu.Pull != 2 || gpu.Compute != 3 || gpu.Push != 0 || gpu.Sync != 0 {
		t.Fatalf("gpu0 row = %+v (a non-phase span must add nothing)", gpu)
	}
	if rows[0].Worker != "cpu1" || rows[0].Sync != 0.25 || rows[0].Total() != 0.25 {
		t.Fatalf("cpu1 row = %+v", rows[0])
	}
	if Rows(nil) != nil {
		t.Fatal("no spans must yield no rows")
	}
}

func TestTotals(t *testing.T) {
	rows := Rows([]obs.Event{
		span("a", obs.Pull, 0, 1),
		span("a", obs.Compute, 1, 3),
		span("b", obs.Pull, 0, 3),
	})
	if len(rows) != 2 || rows[0].Total() != 3 || rows[1].Total() != 3 {
		t.Fatalf("rows = %+v, want totals a=3 b=3", rows)
	}
	if (Row{}).Total() != 0 {
		t.Fatal("empty row total != 0")
	}
}

func TestRowsSortedAndComplete(t *testing.T) {
	rows := Rows([]obs.Event{
		span("z", obs.Pull, 0, 1),
		span("a", obs.Push, 0, 2),
		span("m", obs.Sync, 0, 3),
	})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Worker != "a" || rows[1].Worker != "m" || rows[2].Worker != "z" {
		t.Fatalf("rows not sorted: %+v", rows)
	}
	if rows[0].Push != 2 || rows[0].Total() != 2 {
		t.Fatalf("row a = %+v", rows[0])
	}
}

func TestFormatContainsData(t *testing.T) {
	out := Format(Rows([]obs.Event{span("gpu0", obs.Compute, 1, 2.2345)}))
	if !strings.Contains(out, "gpu0") || !strings.Contains(out, "1.2345") {
		t.Fatalf("Format output missing data:\n%s", out)
	}
	if !strings.Contains(out, "pull(s)") {
		t.Fatal("Format missing header")
	}
}

func TestByTrackOrdersCopy(t *testing.T) {
	events := []obs.Event{
		span("b", obs.Compute, 1, 3),
		span("a", obs.Compute, 1, 2),
		span("a", obs.Pull, 0, 1),
	}
	sorted := ByTrack(events)
	if sorted[0].Track != "a" || sorted[0].Name != "pull" || sorted[1].Start != 1 || sorted[2].Track != "b" {
		t.Fatalf("ByTrack = %+v", sorted)
	}
	if events[0].Track != "b" {
		t.Fatal("ByTrack reordered its input")
	}
}

func TestGanttRendersPhases(t *testing.T) {
	out := Gantt([]obs.Event{
		span("worker0", obs.Pull, 0, 1),
		span("worker0", obs.Compute, 1, 8),
		span("worker0", obs.Push, 8, 9),
		span("worker0", obs.Sync, 9, 10),
	}, 0, 10, 20)
	row := rowOf(t, out, "worker0")
	for _, glyph := range []string{"<", "#", ">", "S"} {
		if !strings.Contains(row, glyph) {
			t.Fatalf("row missing %q:\n%s", glyph, out)
		}
	}
	// Compute dominates: most cells are '#'.
	if strings.Count(row, "#") < 10 {
		t.Fatalf("compute underdrawn:\n%s", out)
	}
}

func TestTimelineWindowClips(t *testing.T) {
	events := []obs.Event{
		span("w", obs.Compute, 0, 10),
		span("w", obs.Push, 12, 14),
		span("late", obs.Pull, 20, 30),
	}
	// [5, 13) over 10 cells of 0.8s: compute clipped to [5,10) fills
	// cells 0–5, push clipped to [12,13) cells 8–9, and the track wholly
	// outside the window gets no row.
	out := Gantt(events, 5, 13, 10)
	if row := rowOf(t, out, "w"); row != "w                |######..>>|" {
		t.Fatalf("clipped row = %q", row)
	}
	if strings.Contains(out, "late") {
		t.Fatalf("out-of-window track drawn:\n%s", out)
	}
}

func TestGanttTinySpanStaysVisible(t *testing.T) {
	out := Gantt([]obs.Event{
		span("w", obs.Compute, 0, 100),
		span("w", obs.Sync, 100, 100.0001),
	}, 0, 100.0001, 50)
	if !strings.Contains(rowOf(t, out, "w"), "S") {
		t.Fatalf("sub-cell sync invisible:\n%s", out)
	}
}

func TestGanttEmptyAndDegenerate(t *testing.T) {
	if out := Gantt(nil, 5, 5, 40); out != "" {
		t.Fatalf("degenerate window output %q", out)
	}
	if out := Gantt(nil, 0, 10, 40); !strings.Contains(out, "timeline") {
		t.Fatalf("empty timeline still needs a header: %q", out)
	}
}

func TestGanttMinWidthClamp(t *testing.T) {
	out := Gantt([]obs.Event{span("w", obs.Pull, 0, 1)}, 0, 1, 1)
	row := rowOf(t, out, "w")
	if len(row) < 10 {
		t.Fatalf("width not clamped: %q", row)
	}
}

func rowOf(t *testing.T, gantt, worker string) string {
	t.Helper()
	for _, line := range strings.Split(gantt, "\n") {
		if strings.HasPrefix(line, worker) {
			return line
		}
	}
	t.Fatalf("no row for %q in:\n%s", worker, gantt)
	return ""
}
