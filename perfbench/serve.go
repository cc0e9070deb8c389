package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/recommend"
	"hccmf/internal/sparse"
)

const (
	// serveSetups is how many times the daemon is started to time its
	// set-up; the last start serves the traffic.
	serveSetups = 2
	// traceFixedShare is the part of a traced run's serving seconds spent
	// at the fixed rate; the capacity ladder gets the rest. An untraced run
	// spends them all at the fixed rate.
	traceFixedShare = 0.5
	warmup          = 500 * time.Millisecond
	// probeSamples is how many requests a capacity-ladder probe offers,
	// within [probeMin, probeMax] of time.
	probeSamples = 1500
	probeMin     = 750 * time.Millisecond
	probeMax     = 2 * time.Second
	// sampleReplies is how many fixed-rate replies are recomputed
	// in-process and compared item by item.
	sampleReplies = 200
)

// request is one scheduled call of the open-loop generator.
type request struct {
	due    time.Duration // since the window's start
	users  []int32       // one user: GET /topn; more: POST /topn
	reload string        // POST /reload with this model file
}

// outcome is what the generator observed for one request.
type outcome struct {
	sent, done time.Duration // since the window's start
	status     int
	body       []byte
	err        error
	// Set by parse, which drops the body: the generation a 200 reply
	// carries, its per-user results, and whether it failed to decode.
	gen       int64
	replies   []topNReply
	malformed bool
}

// parse decodes a 200 reply of a request for users users (0: a reload)
// and drops its body, so a run keeps only what the checks read.
func (o *outcome) parse(users int) {
	defer func() { o.body = nil }()
	if o.err != nil || o.status != http.StatusOK {
		return
	}
	switch users {
	case 0:
		var r struct {
			Generation int64 `json:"generation"`
		}
		o.malformed = json.Unmarshal(o.body, &r) != nil
		o.gen = r.Generation
	case 1:
		var one topNReply
		o.malformed = json.Unmarshal(o.body, &one) != nil
		o.gen, o.replies = one.Generation, []topNReply{one}
	default:
		var b batchReply
		o.malformed = json.Unmarshal(o.body, &b) != nil || len(b.Results) != users
		o.gen, o.replies = b.Generation, b.Results
	}
}

func (o outcome) latency(r request) time.Duration { return o.done - r.due }

// schedule draws Poisson arrivals at rate for the given length: each is a
// single-user GET, or with probability batchFrac a batch POST.
func schedule(rng *sparse.Rand, rate, batchFrac float64, length time.Duration, users int) []request {
	var reqs []request
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			return reqs
		}
		n := 1
		if rng.Float64() < batchFrac {
			n = batchUsers
		}
		us := make([]int32, n)
		for i := range us {
			us[i] = int32(rng.Intn(users))
		}
		reqs = append(reqs, request{due: due, users: us})
	}
}

// withReloads inserts a reload every interval, alternating between the two
// model files, starting with the second (the daemon starts on the first).
func withReloads(reqs []request, length, every time.Duration, models [2]string) []request {
	k := 1
	for at := every; at < length; at += every {
		reqs = append(reqs, request{due: at, reload: models[k%2]})
		k++
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// openLoop sends every request at its due time, whether or not earlier
// ones have returned, and waits for all of them. The client's connection
// cap bounds the concurrency on the wire; requests waiting for a
// connection count that wait in their latency.
func openLoop(client *http.Client, base string, reqs []request) []outcome {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range reqs {
		if d := reqs[i].due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = send(client, base, reqs[i], t0)
		}(i)
	}
	wg.Wait()
	return outs
}

func send(client *http.Client, base string, r request, t0 time.Time) outcome {
	var req *http.Request
	var err error
	switch {
	case r.reload != "":
		body, _ := json.Marshal(map[string]string{"model": r.reload})
		req, err = http.NewRequest(http.MethodPost, base+"/reload", bytes.NewReader(body))
	case len(r.users) == 1:
		req, err = http.NewRequest(http.MethodGet,
			base+"/topn?user="+strconv.Itoa(int(r.users[0]))+"&n="+strconv.Itoa(topN), nil)
	default:
		body, _ := json.Marshal(map[string]any{"users": r.users, "n": topN})
		req, err = http.NewRequest(http.MethodPost, base+"/topn", bytes.NewReader(body))
	}
	out := outcome{sent: time.Since(t0)}
	if err != nil {
		out.err, out.done = err, time.Since(t0)
		return out
	}
	resp, err := client.Do(req)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
	}
	out.err, out.done = err, time.Since(t0)
	return out
}

// window is the latency summary of one open-loop run.
type window struct {
	single, batch []float64 // latencies in µs of 200 replies
	late          []float64 // generator lateness in µs
	offered, ok   int       // traffic requests offered and answered 200
	failed        int       // non-200, transport error, or past the limit
	reloadS       []float64
	backlog       bool // latency grew through the window
}

func summarize(reqs []request, outs []outcome, limit time.Duration) window {
	var w window
	var firstQ, lastQ []float64
	end := reqs[len(reqs)-1].due
	for i, r := range reqs {
		o := outs[i]
		lat := float64(o.latency(r)) / 1e3
		if r.reload != "" {
			w.reloadS = append(w.reloadS, (o.done - o.sent).Seconds())
			if o.err != nil || o.status != http.StatusOK {
				w.failed++
			}
			continue
		}
		w.offered++
		w.late = append(w.late, float64(o.sent-r.due)/1e3)
		if o.err != nil || o.status != http.StatusOK {
			w.failed++
			continue
		}
		w.ok++
		if o.latency(r) > limit {
			w.failed++
		}
		if len(r.users) == 1 {
			w.single = append(w.single, lat)
			switch {
			case r.due < end/4:
				firstQ = append(firstQ, lat)
			case r.due >= end*3/4:
				lastQ = append(lastQ, lat)
			}
		} else {
			w.batch = append(w.batch, lat)
		}
	}
	w.backlog = median(lastQ) > 2*median(firstQ)+1000
	return w
}

// meets reports whether a ladder probe holds the serving limits: GET p99
// within the limit, 99% of the offered requests answered, no backlog.
func (w window) meets(limit time.Duration) bool {
	return len(w.single) > 0 && quantile(w.single, 0.99) <= float64(limit)/1e3 &&
		float64(w.ok) >= 0.99*float64(w.offered) && !w.backlog
}

// daemon is a running hccmf-serve child.
type daemon struct {
	*child
	base string
}

// startDaemon execs hccmf-serve on the final model and the ratings file,
// and returns once it has written its ready-file, with the seconds that
// took (model load plus MarkSeen).
func startDaemon(o options, model, ratings, dir string) (*daemon, float64, error) {
	ready := filepath.Join(dir, "serve.addr")
	_ = os.Remove(ready)
	start := time.Now()
	c, err := startChild(filepath.Join(o.bin, "hccmf-serve"), "-model", model, "-ratings", ratings,
		"-addr", "127.0.0.1:0", "-ready-file", ready, "-workers", strconv.Itoa(o.nproc),
		"-shards", strconv.Itoa(o.w.shards),
		"-max-n", strconv.Itoa(topN), "-max-batch", strconv.Itoa(batchUsers))
	if err != nil {
		return nil, 0, err
	}
	addr, err := waitReadyFile(c, ready, 60*time.Second)
	setup := time.Since(start).Seconds()
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return &daemon{child: c, base: "http://" + addr}, setup, nil
}

// serveChunks is how many slices the fixed-rate schedule is sent in,
// interleaved with the training jobs.
const serveChunks = 10

// serving is the serve half of a run: a hccmf-serve child on the first
// job's models and the fixed-rate open-loop schedule it is sent in chunks.
type serving struct {
	o       options
	ratings string
	models  [2]string
	d       *daemon
	setups  []float64
	client  *http.Client
	rng     *sparse.Rand
	users   int
	// plan is the whole fixed-rate schedule, reloads included, on the
	// serving timeline (the chunks laid end to end); outs holds what the
	// chunks sent so far observed, on the same timeline.
	plan     []request
	outs     []outcome
	chunkLen time.Duration
	served   int // chunks sent
	next     int // first request of the next chunk
	cpuS     float64
}

// startServing starts hccmf-serve serveSetups times on the final model to
// time its set-up, keeps the last start, draws the fixed-rate schedule
// and warms the daemon and the generator's connections up.
func startServing(o options, ratings string, models [2]string, dir string) (*serving, error) {
	w := o.w
	s := &serving{o: o, ratings: ratings, models: models}
	for i := 0; i < serveSetups; i++ {
		if s.d != nil {
			s.d.stop()
		}
		var setup float64
		var err error
		if s.d, setup, err = startDaemon(o, models[0], ratings, dir); err != nil {
			return nil, err
		}
		s.setups = append(s.setups, setup)
	}
	var err error
	if s.users, err = modelUsers(models[0]); err != nil {
		s.d.stop()
		return nil, err
	}
	s.client = &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: o.nproc, MaxIdleConnsPerHost: o.nproc,
			DisableCompression: true},
	}
	s.rng = sparse.NewRand(o.seed ^ 0x5e7e)
	length := o.seconds*(1-trainShare) - warmup.Seconds()
	if o.trace {
		length *= traceFixedShare
	}
	total := time.Duration(length * float64(time.Second))
	s.chunkLen = total / serveChunks
	s.plan = withReloads(schedule(s.rng, w.rate, w.batchFrac, total, s.users), total, w.reloadEvery, models)
	s.outs = make([]outcome, 0, len(s.plan))
	openLoop(s.client, s.d.base, schedule(s.rng, w.rate, w.batchFrac, warmup, s.users))
	return s, nil
}

func (s *serving) close() {
	s.client.CloseIdleConnections()
	s.d.stop()
}

// behind reports whether serving has sent a smaller share of its chunks
// than the share of the measured time that has passed.
func (s *serving) behind(elapsed, measured time.Duration) bool {
	return s.served < serveChunks && float64(s.served)/serveChunks < elapsed.Seconds()/measured.Seconds()
}

func (s *serving) finished() bool { return s.served == serveChunks }

// chunk sends the next slice of the schedule open-loop, with the
// generator's collector off, and keeps the parsed replies.
func (s *serving) chunk() error {
	lo := time.Duration(s.served) * s.chunkLen
	end := s.next
	for end < len(s.plan) && (s.served == serveChunks-1 || s.plan[end].due < lo+s.chunkLen) {
		end++
	}
	part := make([]request, end-s.next)
	for i := range part {
		part[i] = s.plan[s.next+i]
		part[i].due -= lo
	}
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	cpu0, err := procCPUSeconds(s.d.pid())
	if err != nil {
		return err
	}
	outs := openLoop(s.client, s.d.base, part)
	cpu1, err := procCPUSeconds(s.d.pid())
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return err
	}
	s.cpuS += cpu1 - cpu0
	for i := range outs {
		outs[i].sent += lo
		outs[i].done += lo
		outs[i].parse(len(part[i].users))
	}
	s.outs = append(s.outs, outs...)
	s.next, s.served = end, s.served+1
	return nil
}

// chunkMedians is each chunk's GET p50 in µs, to show how the machine's
// speed drifted through the run.
func (s *serving) chunkMedians() []float64 {
	meds := make([]float64, serveChunks)
	for c := range meds {
		lo, hi := time.Duration(c)*s.chunkLen, time.Duration(c+1)*s.chunkLen
		var lat []float64
		for i, r := range s.plan {
			if r.due >= lo && (r.due < hi || c == serveChunks-1) && len(r.users) == 1 && s.outs[i].status == http.StatusOK {
				lat = append(lat, float64(s.outs[i].latency(r))/1e3)
			}
		}
		meds[c] = median(lat)
	}
	return meds
}

// report checks the replies and reports the serving metrics; a traced
// run climbs the capacity ladder first.
func (s *serving) report(rep *report) error {
	o, w := s.o, s.o.w
	fixed := summarize(s.plan, s.outs, replyLimit)
	rep.attempted += int64(len(s.plan))
	rep.failed += int64(fixed.failed)
	refs, seen, err := references(o, s.ratings, s.models)
	if err != nil {
		return err
	}
	defer refs[0].Close()
	defer refs[1].Close()
	checkReplies(rep, s.plan, s.outs, refs, seen, sparse.NewRand(o.seed^0xc0ffee))
	rss, err := peakRSSMB(strconv.Itoa(s.d.pid()))
	if err != nil {
		return err
	}

	rep.details["serve_setup_s"] = s.setups
	rep.details["serve_samples"] = map[string]int{"single": len(fixed.single), "batch": len(fixed.batch),
		"reloads": len(fixed.reloadS)}
	rep.details["serve_chunk_p50_us"] = s.chunkMedians()
	rep.details["serve_p50_us"] = median(fixed.single)
	if !o.trace {
		return nil
	}
	maxQPS, probes := ladder(s.client, s.d.base, w, s.rng, s.users)
	rep.details["ladder_probes"] = probes
	rep.set("serve.p50_us", "us", median(fixed.single))
	rep.set("serve.batch_p50_us", "us", median(fixed.batch))
	rep.set("serve.p99_us", "us", quantile(fixed.single, 0.99))
	rep.set("serve.max_qps", "1/s", maxQPS)
	rep.set("serve.setup_s", "s", median(s.setups))
	rep.set("serve.rss_mb", "MB", rss)
	rep.set("serve.reload_s", "s", median(fixed.reloadS))
	rep.set("serve.cpu_us_per_request", "us", s.cpuS*1e6/float64(fixed.offered))
	rep.set("serve.gen_late_us", "us", quantile(fixed.late, 0.99))
	topn, batch := inProcess(refs[0], s.plan)
	rep.set("recommend.topn_us", "us", topn)
	rep.set("recommend.batch_us", "us", batch)
	rep.set("serve.http_overhead_us", "us", median(fixed.single)-topn)
	return nil
}

// ladder bisects the capacity ladder's fixed rungs for the highest rate
// that meets the limits, assuming a rate that fails makes every higher one
// fail too. It returns that rate (0 if even the lowest rung fails) and
// every probe's outcome by rate.
func ladder(client *http.Client, base string, w workload, rng *sparse.Rand, users int) (float64, map[string]string) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lo, hi := -1, ladderRungs
	probes := map[string]string{}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rate := w.ladderLo * math.Pow(ladderStep, float64(mid))
		length := min(max(time.Duration(probeSamples/rate*float64(time.Second)), probeMin), probeMax)
		preqs := schedule(rng, rate, w.batchFrac, length, users)
		pw := summarize(preqs, openLoop(client, base, preqs), w.p99Limit)
		ok := pw.meets(w.p99Limit)
		probes[strconv.FormatFloat(rate, 'f', 1, 64)] = fmt.Sprintf("ok=%v p50=%.0f p99=%.0f answered=%d/%d backlog=%v",
			ok, median(pw.single), quantile(pw.single, 0.99), pw.ok, pw.offered, pw.backlog)
		if ok {
			lo = mid
		} else {
			hi = mid
		}
		runtime.GC()
	}
	if lo < 0 {
		return 0, probes
	}
	return w.ladderLo * math.Pow(ladderStep, float64(lo)), probes
}

// references builds in-process recommend.Services over the two model files
// and the ratings, the way hccmf-serve does, and each user's seen items.
func references(o options, ratings string, models [2]string) ([2]*recommend.Service, map[int32]map[int32]bool, error) {
	var refs [2]*recommend.Service
	m, err := dataset.ReadRatingsFile(ratings, o.nproc)
	if err != nil {
		return refs, nil, err
	}
	for i, path := range models {
		raw, err := os.ReadFile(path)
		if err != nil {
			return refs, nil, err
		}
		f, err := mf.ReadFactors(bytes.NewReader(raw))
		if err != nil {
			return refs, nil, err
		}
		svc, err := recommend.NewService(f, f.M, f.N, recommend.ServiceConfig{Workers: o.nproc, Shards: o.w.shards, MaxN: topN})
		if err != nil {
			return refs, nil, err
		}
		if err := svc.MarkSeen(m); err != nil {
			return refs, nil, err
		}
		refs[i] = svc
	}
	seen := map[int32]map[int32]bool{}
	for _, e := range m.Entries {
		if seen[e.U] == nil {
			seen[e.U] = map[int32]bool{}
		}
		seen[e.U][e.I] = true
	}
	return refs, seen, nil
}

type topNReply struct {
	User       int32            `json:"user"`
	N          int              `json:"n"`
	Generation int64            `json:"generation"`
	Items      []recommend.Item `json:"items"`
}

type batchReply struct {
	N          int         `json:"n"`
	Generation int64       `json:"generation"`
	Results    []topNReply `json:"results"`
}

// checkReplies validates every 200 reply of the fixed-rate window and
// recomputes a seeded sample in-process against the model of the reply's
// generation. Generation g serves models[(g-1)%2]: the daemon starts on
// the final model and every reload alternates.
func checkReplies(rep *report, reqs []request, outs []outcome, refs [2]*recommend.Service,
	seen map[int32]map[int32]bool, rng *sparse.Rand) {
	reloads := int64(0)
	var reloadSpans [][2]time.Duration
	for i, r := range reqs {
		if r.reload == "" {
			continue
		}
		reloads++
		reloadSpans = append(reloadSpans, [2]time.Duration{outs[i].sent, outs[i].done})
		rep.check(outs[i].gen == reloads+1, "reload %d answered generation %d", reloads, outs[i].gen)
	}
	overlapsReload := func(o outcome) bool {
		for _, s := range reloadSpans {
			if o.sent <= s[1] && s[0] <= o.done {
				return true
			}
		}
		return false
	}
	type sampled struct {
		user  int32
		gen   int64
		items []recommend.Item
	}
	var pool []sampled
	bad := 0
	checkOne := func(r topNReply, gen int64) {
		ok := r.N == topN && len(r.Items) == topN && gen >= 1 && gen <= reloads+1 && r.Generation == gen
		for j, it := range r.Items {
			if seen[r.User][it.ID] {
				ok = false
			}
			if j > 0 {
				prev := r.Items[j-1]
				if prev.Score < it.Score || (prev.Score == it.Score && prev.ID >= it.ID) {
					ok = false
				}
			}
		}
		if !ok {
			bad++
		}
	}
	for i, r := range reqs {
		o := outs[i]
		if r.reload != "" || o.err != nil || o.status != http.StatusOK {
			continue
		}
		if o.malformed {
			bad++
			continue
		}
		for j, one := range o.replies {
			if one.User != r.users[j] {
				bad++
			}
			checkOne(one, o.gen)
			if !overlapsReload(o) {
				pool = append(pool, sampled{one.User, o.gen, one.Items})
			}
		}
	}
	rep.check(bad == 0, "%d malformed or misordered replies", bad)
	mismatched := 0
	buf := make([]recommend.Item, 0, topN)
	for k := 0; k < sampleReplies && len(pool) > 0; k++ {
		s := pool[rng.Intn(len(pool))]
		want, err := refs[(s.gen-1)%2].TopNInto(s.user, topN, buf)
		if err != nil || len(want) != len(s.items) {
			mismatched++
			continue
		}
		for j := range want {
			if want[j].ID != s.items[j].ID || math.Float32bits(want[j].Score) != math.Float32bits(s.items[j].Score) {
				mismatched++
				break
			}
		}
	}
	rep.check(mismatched == 0, "%d of %d sampled replies differ from the in-process service", mismatched, sampleReplies)
}

// inProcess times (*recommend.Service).TopNInto and TopNBatch on the
// users and batches the fixed-rate window sent, and returns the median
// microseconds of each.
func inProcess(svc *recommend.Service, reqs []request) (topn, batch float64) {
	buf := make([]recommend.Item, 0, topN)
	rows := make([][]recommend.Item, batchUsers)
	for i := range rows {
		rows[i] = make([]recommend.Item, 0, topN)
	}
	var singles, batches []float64
	for _, r := range reqs {
		switch {
		case r.reload != "":
		case len(r.users) == 1:
			s := time.Now()
			_, _ = svc.TopNInto(r.users[0], topN, buf)
			singles = append(singles, float64(time.Since(s))/1e3)
		default:
			s := time.Now()
			_ = svc.TopNBatch(r.users, topN, rows)
			batches = append(batches, float64(time.Since(s))/1e3)
		}
	}
	return median(singles), median(batches)
}

// modelUsers reads a model file's user count.
func modelUsers(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	f, err := mf.ReadFactors(bytes.NewReader(raw))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return f.M, nil
}
