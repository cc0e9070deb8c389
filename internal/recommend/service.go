package recommend

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hccmf/internal/sparse"
)

// Service is the request-path serving engine behind hccmf-serve: a
// read-mostly top-N scorer designed for heavy concurrent traffic.
//
//   - Sharding: the item axis is cut into contiguous ranges, the same
//     single-backing-array view pattern as sparse.RowShards — the model's
//     Q rows already live in one flat array, and each shard is just an
//     index range [lo,hi) over it, so a single-user query fans its scan
//     across shards with no per-shard copies.
//   - Persistent worker pool: a fixed set of goroutines drains a task
//     channel (the internal/mf sweep-pool pattern). Tasks are sent by
//     value; nothing on the request path spawns goroutines.
//   - Bounded heaps in caller buffers: shard scans and merges build their
//     heaps inside preallocated buffers, so the steady-state scoring path
//     is 0 allocs/op (enforced by alloc_test.go).
//   - Hot reload: the model lives behind an atomic pointer. Reload
//     validates dimensions and swaps the pointer; every request loads the
//     pointer exactly once, so a request never mixes two models.
//
// MarkSeen is not safe to call concurrently with queries: load the seen
// set once, before serving traffic (every caller does this at startup).
type Service struct {
	users, items int
	maxN         int
	nshards      int
	bounds       []int32 // len nshards+1; shard s scans [bounds[s], bounds[s+1])
	workers      int

	model atomic.Pointer[modelBox]
	gen   atomic.Int64
	seen  seenIndex

	tasks   chan serveTask
	queries sync.Pool // *query
}

// modelBox wraps the Scorer so the atomic pointer has a concrete type.
type modelBox struct{ s Scorer }

// ServiceConfig sizes a Service. Zero values pick defaults.
type ServiceConfig struct {
	// Workers is the size of the persistent scoring pool (default
	// GOMAXPROCS).
	Workers int
	// Shards is the number of item ranges a single-user query fans out
	// over (default Workers).
	Shards int
	// MaxN caps the per-request n; it sizes the preallocated per-shard
	// heaps (default 100).
	MaxN int
}

// serveTask is one unit of scoring work: scan items [lo,hi) for user u
// into the n-bounded heap at *dst. Sent by value; the worker writes the
// resulting slice header back through dst and signals wg.
type serveTask struct {
	model  Scorer
	seen   []int32
	u      int32
	lo, hi int32
	n      int
	dst    *[]Item
	wg     *sync.WaitGroup
}

// serveWorker drains tasks until the channel is closed. Top-level function
// (not a closure) so pool construction allocates only the goroutines.
//
// lint:hotpath
func serveWorker(tasks <-chan serveTask) {
	for t := range tasks {
		*t.dst = scanRange(t.model, t.u, t.seen, t.lo, t.hi, t.n, (*t.dst)[:0])
		t.wg.Done()
	}
}

// query is the pooled per-request state: one bounded heap per shard. The
// heaps are preallocated at MaxN capacity so a request allocates nothing.
type query struct {
	wg    sync.WaitGroup
	parts [][]Item
}

// NewService builds the serving engine for a model covering users×items.
func NewService(model Scorer, users, items int, cfg ServiceConfig) (*Service, error) {
	if model == nil {
		return nil, fmt.Errorf("recommend: nil model")
	}
	if users <= 0 || items <= 0 {
		return nil, fmt.Errorf("recommend: dims %dx%d", users, items)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = workers
	}
	if nshards > items {
		nshards = items
	}
	maxN := cfg.MaxN
	if maxN <= 0 {
		maxN = 100
	}
	s := &Service{
		users: users, items: items,
		maxN: maxN, nshards: nshards, workers: workers,
		tasks: make(chan serveTask, workers),
	}
	// Equal-width contiguous item ranges; the last shard absorbs the
	// remainder. bounds is the shard analogue of a CSR row prefix.
	s.bounds = make([]int32, nshards+1)
	for i := 0; i <= nshards; i++ {
		s.bounds[i] = int32(i * items / nshards)
	}
	s.model.Store(&modelBox{s: model})
	s.gen.Store(1)
	s.queries.New = func() any {
		q := &query{parts: make([][]Item, nshards)}
		for i := range q.parts {
			q.parts[i] = make([]Item, 0, maxN)
		}
		return q
	}
	for i := 0; i < workers; i++ {
		go serveWorker(s.tasks)
	}
	return s, nil
}

// Close stops the worker pool. Queries must not be in flight or issued
// after Close.
func (s *Service) Close() { close(s.tasks) }

// Users reports the model's user count.
func (s *Service) Users() int { return s.users }

// Items reports the model's item count.
func (s *Service) Items() int { return s.items }

// MaxN reports the per-request n cap.
func (s *Service) MaxN() int { return s.maxN }

// Generation reports the model generation, incremented by every Reload.
func (s *Service) Generation() int64 { return s.gen.Load() }

// MarkSeen loads already-rated interactions for seen-item exclusion; train
// is only read. It may be called once, before serving; a second call
// returns an error.
func (s *Service) MarkSeen(train *sparse.COO) error {
	if s.seen.off != nil {
		return fmt.Errorf("recommend: seen set already marked")
	}
	seen, err := newSeenIndex(train, s.users, s.items)
	s.seen = seen
	return err
}

// Reload atomically swaps in a new model of identical dimensions.
// In-flight requests keep scoring against the model they started with;
// requests beginning after Reload returns see the new one.
func (s *Service) Reload(model Scorer, users, items int) error {
	if model == nil {
		return fmt.Errorf("recommend: reload with nil model")
	}
	if users != s.users || items != s.items {
		return fmt.Errorf("recommend: reload dims %dx%d do not match service %dx%d",
			users, items, s.users, s.items)
	}
	s.model.Store(&modelBox{s: model})
	s.gen.Add(1)
	return nil
}

// TopNInto answers a single-user query, fanning the item scan across the
// service's shards on the persistent pool and merging the shard heaps
// best-first into buf. With cap(buf) >= n the call allocates nothing in
// steady state. The returned slice aliases buf.
//
// lint:hotpath
func (s *Service) TopNInto(u int32, n int, buf []Item) ([]Item, error) {
	if err := s.checkQuery(u, n); err != nil {
		return nil, err
	}
	model := s.model.Load().s
	seen := s.seen.row(u)
	q := s.queries.Get().(*query)
	q.wg.Add(s.nshards)
	for i := 0; i < s.nshards; i++ {
		s.tasks <- serveTask{
			model: model, seen: seen, u: u,
			lo: s.bounds[i], hi: s.bounds[i+1],
			n: n, dst: &q.parts[i], wg: &q.wg,
		}
	}
	q.wg.Wait()
	out := buf[:0]
	for _, part := range q.parts {
		for _, it := range part {
			out = pushBounded(out, n, it)
		}
	}
	s.queries.Put(q)
	sortDesc(out)
	return out, nil
}

// TopNBatch answers a multi-user query: one task per user on the
// persistent pool, each scanning the full item range into the caller's
// row buffer bufs[i] (heap built in place, then sorted best-first). With
// cap(bufs[i]) >= n the call allocates nothing in steady state. Row i of
// bufs is re-sliced to user i's results. Validation happens before any
// task is dispatched, and errors name the offending user.
//
// lint:hotpath
func (s *Service) TopNBatch(users []int32, n int, bufs [][]Item) error {
	if len(bufs) < len(users) {
		return fmt.Errorf("recommend: batch of %d users with %d result buffers", len(users), len(bufs)) // lint:allow hotalloc validation error path, never taken in steady state
	}
	for i, u := range users {
		if err := s.checkQuery(u, n); err != nil {
			return fmt.Errorf("recommend: batch user %d (index %d): %w", u, i, err) // lint:allow hotalloc validation error path, never taken in steady state
		}
	}
	model := s.model.Load().s
	q := s.queries.Get().(*query)
	q.wg.Add(len(users))
	for i, u := range users {
		bufs[i] = bufs[i][:0]
		s.tasks <- serveTask{
			model: model, seen: s.seen.row(u), u: u,
			lo: 0, hi: int32(s.items),
			n: n, dst: &bufs[i], wg: &q.wg,
		}
	}
	q.wg.Wait()
	s.queries.Put(q)
	for i := range users {
		sortDesc(bufs[i])
	}
	return nil
}

// HitRateAtN evaluates the model against held-out interactions: the
// fraction of test users with at least one held-out item in their top-n,
// scored through TopNBatch. Users with no test interactions are skipped.
func (s *Service) HitRateAtN(test *sparse.COO, n int) (float64, error) {
	held, err := newSeenIndex(test, s.users, s.items)
	if err != nil {
		return 0, err
	}
	var users []int32
	for u := int32(0); int(u) < s.users; u++ {
		if len(held.row(u)) > 0 {
			users = append(users, u)
		}
	}
	if len(users) == 0 {
		return 0, fmt.Errorf("recommend: empty test set")
	}
	recs := make([][]Item, len(users))
	if err := s.TopNBatch(users, n, recs); err != nil {
		return 0, err
	}
	hits := 0
	for k, u := range users {
		for _, it := range recs[k] {
			if held.has(u, it.ID) {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(users)), nil
}

func (s *Service) checkQuery(u int32, n int) error {
	if u < 0 || int(u) >= s.users {
		return fmt.Errorf("recommend: user %d out of range [0,%d)", u, s.users)
	}
	if n <= 0 {
		return fmt.Errorf("recommend: n = %d", n)
	}
	if n > s.maxN {
		return fmt.Errorf("recommend: n = %d exceeds the service cap %d", n, s.maxN)
	}
	return nil
}
