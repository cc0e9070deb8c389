// Command hccmf-serve is the model-serving daemon: it loads a factor model
// trained by hccmf-train (or builds a seeded synthetic one) and answers
// top-N recommendation queries over HTTP from an in-memory
// recommend.Service — sharded scoring on a persistent worker pool, bounded
// heaps in pooled buffers, and atomic hot model reload.
//
// Endpoints:
//
//	GET  /topn?user=U&n=N   top-N for one user
//	POST /topn              {"users":[...],"n":N} batch top-N
//	POST /reload            {"model":"path"} atomic hot model swap
//	GET  /healthz           liveness + model generation
//	GET  /metrics           obs registry in text form
//
// Usage:
//
//	hccmf-train -preset netflix -scale 0.01 -save model.bin
//	hccmf-serve -model model.bin -ratings ratings.txt -addr :8080
//	hccmf-serve -synthetic 2000x1000x32 -addr 127.0.0.1:0 -ready-file addr.txt
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/recommend"
	"hccmf/internal/sparse"
	"hccmf/internal/version"
)

func main() {
	modelPath := flag.String("model", "", "trained model file (from hccmf-train -save)")
	synthetic := flag.String("synthetic", "", "serve a seeded synthetic model of shape MxNxK (e.g. 2000x1000x32) instead of -model")
	seed := flag.Uint64("seed", 1, "random seed for -synthetic factors")
	ratingsPath := flag.String("ratings", "", "ratings file (text or binary) for seen-item exclusion")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; see -ready-file)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "scoring pool size")
	shards := flag.Int("shards", 0, "item shards per single-user query (default: workers)")
	maxN := flag.Int("max-n", 100, "per-request n cap (sizes the preallocated heaps)")
	maxBatch := flag.Int("max-batch", 256, "users per batch request cap")
	readyFile := flag.String("ready-file", "", "write the actual listen address to this file once serving")
	metricsOut := flag.String("metrics-out", "", "write an hccmf-obs/v1 metrics JSON document here on shutdown")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON document here on shutdown")
	ioWorkers := flag.Int("io-workers", runtime.GOMAXPROCS(0), "parser workers for -ratings loading")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("hccmf-serve", version.String())
		return
	}

	model, err := loadServeModel(*modelPath, *synthetic, *seed)
	if err != nil {
		fatal(err)
	}
	svc, err := recommend.NewService(model, model.M, model.N, recommend.ServiceConfig{
		Workers: *workers, Shards: *shards, MaxN: *maxN,
	})
	if err != nil {
		fatal(err)
	}
	if *ratingsPath != "" {
		ratings, err := dataset.ReadRatingsFile(*ratingsPath, *ioWorkers)
		if err != nil {
			fatal(err)
		}
		if ratings.Rows != model.M || ratings.Cols != model.N {
			fatal(fmt.Errorf("ratings %dx%d do not match model %dx%d",
				ratings.Rows, ratings.Cols, model.M, model.N))
		}
		if err := svc.MarkSeen(ratings); err != nil {
			fatal(err)
		}
	}

	observer := obs.NewObserver(0, nil)
	srv := newServer(svc, observer, *maxBatch)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "hccmf-serve: %d users × %d items, k=%d, serving on %s (workers=%d, max-n=%d)\n",
		model.M, model.N, model.K, ln.Addr(), *workers, svc.MaxN())

	httpSrv := newHTTPServer(srv)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "hccmf-serve: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "hccmf-serve: shutdown:", err)
		}
		cancel()
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
	svc.Close()

	if *metricsOut != "" {
		if err := observer.WriteMetricsFile(*metricsOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hccmf-serve: metrics written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := observer.WriteTraceFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hccmf-serve: trace written to %s\n", *traceOut)
	}
}

// loadServeModel resolves the startup model: a saved factor file or a
// seeded synthetic MxNxK (for smoke tests and load benches that should
// not depend on a training run).
func loadServeModel(modelPath, synthetic string, seed uint64) (*mf.Factors, error) {
	switch {
	case modelPath != "" && synthetic != "":
		return nil, fmt.Errorf("-model and -synthetic are mutually exclusive")
	case modelPath != "":
		return readModelFile(modelPath)
	case synthetic != "":
		var m, n, k int
		if _, err := fmt.Sscanf(synthetic, "%dx%dx%d", &m, &n, &k); err != nil {
			return nil, fmt.Errorf("-synthetic %q: want MxNxK (e.g. 2000x1000x32)", synthetic)
		}
		if m <= 0 || n <= 0 || k <= 0 {
			return nil, fmt.Errorf("-synthetic %q: dims must be positive", synthetic)
		}
		return mf.NewFactorsInit(m, n, k, 3.5, sparse.NewRand(seed)), nil
	default:
		return nil, fmt.Errorf("one of -model or -synthetic is required")
	}
}

func readModelFile(path string) (*mf.Factors, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	model, err := mf.ReadFactors(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return model, nil
}

// Connection deadlines, so a slow or stalled client cannot hold a
// connection (and its goroutine) open indefinitely: the request line and
// headers must arrive within readHeaderTimeout, the whole request within
// readTimeout, the response must be written within writeTimeout of the
// headers being read (a reader that stops draining its reply is cut off),
// and a keep-alive connection may sit idle for idleTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the connection deadlines.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// batchBodyLimit bounds a POST /topn body before it is decoded: maxBatch
// users at the widest int32 ("-2147483648") plus a separator and some
// whitespace each, and 1 KiB for the envelope and n.
func batchBodyLimit(maxBatch int) int64 { return 1<<10 + 24*int64(maxBatch) }

// reloadBodyLimit bounds a POST /reload body: one model path (PATH_MAX is
// 4 KiB on Linux) plus its JSON envelope and escapes.
const reloadBodyLimit = 8 << 10

// server is the HTTP layer over a recommend.Service; split from main so
// tests drive it through httptest without sockets or signals.
type server struct {
	svc      *recommend.Service
	obs      *obs.Observer
	metrics  *obs.ServeMetrics
	maxBatch int
	mux      *http.ServeMux
	bufs     sync.Pool // *queryBuf
	// loadModel resolves a /reload path to factors (stubbed in tests).
	loadModel func(path string) (*mf.Factors, error)
	// reloadMu serialises reloads: the swap itself is atomic, but two
	// concurrent reloads interleaving file reads and generation bumps
	// would make the reported generations ambiguous.
	reloadMu sync.Mutex
}

// queryBuf is the pooled per-request result storage: a single-user buffer
// and batch rows, all at MaxN capacity so the scoring path stays 0-alloc.
type queryBuf struct {
	single []recommend.Item
	rows   [][]recommend.Item
}

func newServer(svc *recommend.Service, observer *obs.Observer, maxBatch int) *server {
	if maxBatch <= 0 {
		maxBatch = 256
	}
	s := &server{
		svc:      svc,
		obs:      observer,
		maxBatch: maxBatch,
		mux:      http.NewServeMux(),
		loadModel: func(path string) (*mf.Factors, error) {
			return readModelFile(path)
		},
	}
	if observer != nil {
		s.metrics = obs.NewServeMetrics(observer.Registry).WithClock(obs.WallClock())
	}
	maxN := svc.MaxN()
	s.bufs.New = func() any {
		b := &queryBuf{
			single: make([]recommend.Item, 0, maxN),
			rows:   make([][]recommend.Item, maxBatch),
		}
		for i := range b.rows {
			b.rows[i] = make([]recommend.Item, 0, maxN)
		}
		return b
	}
	s.mux.HandleFunc("/topn", s.handleTopN)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// topNResponse is the GET /topn body.
type topNResponse struct {
	User       int32            `json:"user"`
	N          int              `json:"n"`
	Generation int64            `json:"generation"`
	Items      []recommend.Item `json:"items"`
}

// batchRequest and batchResponse are the POST /topn bodies.
type batchRequest struct {
	Users []int32 `json:"users"`
	N     int     `json:"n"`
}

type batchResponse struct {
	N          int            `json:"n"`
	Generation int64          `json:"generation"`
	Results    []topNResponse `json:"results"`
}

func (s *server) handleTopN(w http.ResponseWriter, r *http.Request) {
	start := s.metrics.RequestStart()
	switch r.Method {
	case http.MethodGet:
		s.topNSingle(w, r, start)
	case http.MethodPost:
		s.topNBatch(w, r, start)
	default:
		s.fail(w, start, http.StatusMethodNotAllowed, fmt.Errorf("method %s", r.Method))
	}
}

func (s *server) topNSingle(w http.ResponseWriter, r *http.Request, start float64) {
	user, err := strconv.ParseInt(r.URL.Query().Get("user"), 10, 32)
	if err != nil {
		s.fail(w, start, http.StatusBadRequest, fmt.Errorf("user: %w", err))
		return
	}
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		if n, err = strconv.Atoi(raw); err != nil {
			s.fail(w, start, http.StatusBadRequest, fmt.Errorf("n: %w", err))
			return
		}
	}
	buf := s.bufs.Get().(*queryBuf)
	defer s.bufs.Put(buf)
	gen := s.svc.Generation()
	items, err := s.svc.TopNInto(int32(user), n, buf.single)
	if err != nil {
		s.fail(w, start, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, topNResponse{User: int32(user), N: n, Generation: gen, Items: items})
	s.metrics.RequestDone(start, 1, false)
}

func (s *server) topNBatch(w http.ResponseWriter, r *http.Request, start float64) {
	var req batchRequest
	body := http.MaxBytesReader(w, r.Body, batchBodyLimit(s.maxBatch))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.fail(w, start, code, fmt.Errorf("body: %w", err))
		return
	}
	if len(req.Users) == 0 {
		s.fail(w, start, http.StatusBadRequest, fmt.Errorf("empty users"))
		return
	}
	if len(req.Users) > s.maxBatch {
		s.fail(w, start, http.StatusBadRequest,
			fmt.Errorf("batch of %d users exceeds the cap %d", len(req.Users), s.maxBatch))
		return
	}
	if req.N == 0 {
		req.N = 10
	}
	buf := s.bufs.Get().(*queryBuf)
	defer s.bufs.Put(buf)
	gen := s.svc.Generation()
	if err := s.svc.TopNBatch(req.Users, req.N, buf.rows); err != nil {
		s.fail(w, start, http.StatusBadRequest, err)
		return
	}
	resp := batchResponse{N: req.N, Generation: gen, Results: make([]topNResponse, len(req.Users))}
	for i, u := range req.Users {
		resp.Results[i] = topNResponse{User: u, N: req.N, Generation: gen, Items: buf.rows[i]}
	}
	s.writeJSON(w, resp)
	s.metrics.RequestDone(start, len(req.Users), false)
}

// reloadRequest is the POST /reload body.
type reloadRequest struct {
	Model string `json:"model"`
}

type reloadResponse struct {
	Generation int64 `json:"generation"`
}

func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req reloadRequest
	body := http.MaxBytesReader(w, r.Body, reloadBodyLimit)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "body: "+err.Error(), code)
		return
	}
	if req.Model == "" {
		http.Error(w, "model path required", http.StatusBadRequest)
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	model, err := s.loadModel(req.Model)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.svc.Reload(model, model.M, model.N); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	gen := s.svc.Generation()
	s.metrics.CountReload(gen)
	s.obs.Instant("serve", "reload", "serve", "reload", "generation", float64(gen))
	s.writeJSON(w, reloadResponse{Generation: gen})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "ok generation=%d users=%d items=%d\n",
		s.svc.Generation(), s.svc.Users(), s.svc.Items())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.obs.Registry.Format())
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but note it.
		fmt.Fprintln(os.Stderr, "hccmf-serve: write:", err)
	}
}

func (s *server) fail(w http.ResponseWriter, start float64, code int, err error) {
	http.Error(w, err.Error(), code)
	s.metrics.RequestDone(start, 0, true)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hccmf-serve:", err)
	os.Exit(1)
}
