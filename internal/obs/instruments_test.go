package obs

import "testing"

// Wire-level instruments move only for transfers that produced frames:
// shared-memory traffic keeps comm/net_seconds and the wire counters at
// zero, wire traffic feeds them — and retries are part of one sample, so
// nothing is double-counted.
func TestCountTransferGatesWireInstruments(t *testing.T) {
	r := NewRegistry()
	m := NewRunMetrics(r)

	m.CountTransfer(TransferSample{BusBytes: 100, Copies: 1, Retries: 2})
	if m.WireBytes.Value() != 0 || m.Frames.Value() != 0 || m.Handshakes.Value() != 0 {
		t.Fatalf("in-process transfer moved wire counters: wire=%d frames=%d hs=%d",
			m.WireBytes.Value(), m.Frames.Value(), m.Handshakes.Value())
	}
	if m.NetSeconds.Count() != 0 {
		t.Fatal("in-process transfer fed comm/net_seconds")
	}

	m.CountTransfer(TransferSample{
		BusBytes: 100, WireBytes: 148, Copies: 3, Retries: 1,
		Frames: 2, Handshakes: 1, Seconds: 0.25, Failed: false,
	})
	if m.BusBytes.Value() != 200 {
		t.Fatalf("BusBytes = %d, want 200", m.BusBytes.Value())
	}
	if m.WireBytes.Value() != 148 || m.Frames.Value() != 2 || m.Handshakes.Value() != 1 {
		t.Fatalf("wire counters = %d/%d/%d", m.WireBytes.Value(), m.Frames.Value(), m.Handshakes.Value())
	}
	if m.NetSeconds.Count() != 1 || m.NetSeconds.Sum() != 0.25 {
		t.Fatalf("net_seconds count=%d sum=%v", m.NetSeconds.Count(), m.NetSeconds.Sum())
	}
	if m.Retries.Value() != 3 || m.Transfers.Value() != 2 {
		t.Fatalf("retries=%d transfers=%d", m.Retries.Value(), m.Transfers.Value())
	}

	m.CountTransfer(TransferSample{Failed: true})
	if m.TransferErrors.Value() != 1 {
		t.Fatalf("errors = %d", m.TransferErrors.Value())
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{Pull: "pull", Compute: "computing", Push: "push", Sync: "sync"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Phase(9).String() != "Phase(9)" {
		t.Error("unknown phase string wrong")
	}
}
