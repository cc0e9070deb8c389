package ps

import (
	"sync"
	"testing"

	"hccmf/internal/comm"
)

// recordingRemote wraps an in-process transport with the Remote capability,
// recording every published shard — the cluster-side contract a real wire
// transport (internal/comm/net) relies on to serve pulls — and every
// pulled one.
type recordingRemote struct {
	comm.Transport
	mu    sync.Mutex
	syncs []comm.Shard
	pulls []comm.Shard
}

func (r *recordingRemote) RemoteAddr() string { return "fake:0" }
func (r *recordingRemote) SyncShard(src []float32, x comm.Xfer) (comm.TransferStats, error) {
	r.mu.Lock()
	r.syncs = append(r.syncs, x.Shard)
	r.mu.Unlock()
	return comm.TransferStats{BusBytes: int64(len(src)) * int64(x.Enc.BytesPerParam())}, nil
}

func (r *recordingRemote) Pull(dst, src []float32, x comm.Xfer) (comm.TransferStats, error) {
	r.mu.Lock()
	r.pulls = append(r.pulls, x.Shard)
	r.mu.Unlock()
	return r.Transport.Pull(dst, src, x)
}

func (r *recordingRemote) count(m comm.Matrix) int {
	n := 0
	for _, s := range r.syncs {
		if s.Matrix == m && s.Owner == comm.GlobalOwner {
			n++
		}
	}
	return n
}

// The cluster must publish the authoritative global factors to a remote
// transport: Q at construction and after every sync, and P only where a
// pull or the saved model can read it. Under Q-only no worker pulls the
// global P, so it travels once, on the final epoch.
func TestClusterPublishesGlobalToRemote(t *testing.T) {
	full, confs := buildProblem(t, 120, 80, 6000, []float64{0.5, 0.5}, 48)
	rem := &recordingRemote{Transport: comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 2})}
	cfg := defaultConfig(120, 80)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}
	cfg.MeanRating = full.MeanRating()
	cfg.Transport = rem
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if rem.count(comm.MatrixQ) != 1 || rem.count(comm.MatrixP) != 0 {
		t.Fatalf("construction published %+v, want one Q shard and no P", rem.syncs)
	}
	const epochs = 5
	if err := c.Train(epochs, nil); err != nil {
		t.Fatal(err)
	}
	// One Q publish at New plus one per epoch; P only on the final epoch.
	if got := rem.count(comm.MatrixQ); got != 1+epochs {
		t.Fatalf("Q published %d times, want %d", got, 1+epochs)
	}
	if got := rem.count(comm.MatrixP); got != 1 {
		t.Fatalf("P published %d times under Q-only, want 1 (final epoch)", got)
	}
	if last := rem.syncs[len(rem.syncs)-1]; last.Matrix != comm.MatrixP {
		t.Fatalf("last publish %v, want the final epoch's P", last)
	}
	for _, s := range rem.syncs {
		want := len(c.global.Q)
		if s.Matrix == comm.MatrixP {
			want = len(c.global.P)
		}
		if s.Lo != 0 || s.Hi != want {
			t.Fatalf("published partial shard %v", s)
		}
	}
	// Publishes are real traffic: the stats must account them.
	if c.CommStats().BusBytes == 0 {
		t.Fatal("published bytes not accounted")
	}
}

// No Q-only run pulls the global P: each worker gets its own P rows once,
// before training, so the remote store need not hold P until the final
// epoch publishes it. Both the bulk-synchronous epoch and the async
// streams are checked.
func TestQOnlyNeverPullsGlobalP(t *testing.T) {
	for _, streams := range []int{1, 4} {
		if streams > 1 {
			skipAsyncUnderRace(t)
		}
		full, confs := buildProblem(t, 120, 80, 6000, []float64{0.5, 0.5}, 48)
		rem := &recordingRemote{Transport: comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 2})}
		cfg := defaultConfig(120, 80)
		cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: streams}
		cfg.MeanRating = full.MeanRating()
		cfg.Transport = rem
		c, err := New(cfg, confs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(4, nil); err != nil {
			t.Fatal(err)
		}
		if len(rem.pulls) == 0 {
			t.Fatalf("streams=%d: no pulls recorded; the recorder is not on the pull path", streams)
		}
		for _, s := range rem.pulls {
			if s.Matrix == comm.MatrixP && s.Owner == comm.GlobalOwner {
				t.Fatalf("streams=%d: Q-only run pulled the global P: %v", streams, s)
			}
		}
	}
}

// In-process transports have no remote store; nothing must be published.
func TestNoPublishOnInProcessTransport(t *testing.T) {
	full, confs := buildProblem(t, 60, 40, 1000, []float64{1}, 49)
	cfg := defaultConfig(60, 40)
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(2, nil); err != nil {
		t.Fatal(err)
	}
}
