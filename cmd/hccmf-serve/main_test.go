package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/recommend"
	"hccmf/internal/sparse"
)

const (
	testUsers = 50
	testItems = 120
	testK     = 8
)

func newTestServer(t *testing.T) (*server, *mf.Factors, *httptest.Server) {
	t.Helper()
	model := mf.NewFactorsInit(testUsers, testItems, testK, 3.5, sparse.NewRand(3))
	svc, err := recommend.NewService(model, testUsers, testItems, recommend.ServiceConfig{MaxN: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := newServer(svc, obs.NewObserver(0, nil), 8)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, model, ts
}

func getTopN(t *testing.T, base string, user, n int) topNResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/topn?user=%d&n=%d", base, user, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out topNResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTopNSingleMatchesReference(t *testing.T) {
	_, model, ts := newTestServer(t)
	ref, err := recommend.New(model, testUsers, testItems)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 7, testUsers - 1} {
		out := getTopN(t, ts.URL, u, 10)
		want, err := ref.TopN(int32(u), 10)
		if err != nil {
			t.Fatal(err)
		}
		if out.User != int32(u) || out.Generation != 1 || len(out.Items) != len(want) {
			t.Fatalf("user %d: %+v", u, out)
		}
		for i := range want {
			if out.Items[i] != want[i] {
				t.Fatalf("user %d rank %d: got %+v want %+v", u, i, out.Items[i], want[i])
			}
		}
	}
}

func TestTopNBatchMatchesSingles(t *testing.T) {
	_, _, ts := newTestServer(t)
	users := []int32{4, 0, 31}
	body, _ := json.Marshal(batchRequest{Users: users, N: 5})
	resp, err := http.Post(ts.URL+"/topn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(users) {
		t.Fatalf("results: %+v", out)
	}
	for i, u := range users {
		single := getTopN(t, ts.URL, int(u), 5)
		if out.Results[i].User != u || len(out.Results[i].Items) != 5 {
			t.Fatalf("row %d: %+v", i, out.Results[i])
		}
		for j := range single.Items {
			if out.Results[i].Items[j] != single.Items[j] {
				t.Fatalf("user %d rank %d: batch %+v single %+v",
					u, j, out.Results[i].Items[j], single.Items[j])
			}
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, _, ts := newTestServer(t)
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		code int
	}{
		{"missing user", func() (*http.Response, error) {
			return http.Get(ts.URL + "/topn")
		}, http.StatusBadRequest},
		{"user out of range", func() (*http.Response, error) {
			return http.Get(ts.URL + "/topn?user=999")
		}, http.StatusBadRequest},
		{"n over cap", func() (*http.Response, error) {
			return http.Get(ts.URL + "/topn?user=0&n=21")
		}, http.StatusBadRequest},
		{"empty batch", func() (*http.Response, error) {
			return http.Post(ts.URL+"/topn", "application/json", strings.NewReader(`{"users":[]}`))
		}, http.StatusBadRequest},
		{"batch over cap", func() (*http.Response, error) {
			return http.Post(ts.URL+"/topn", "application/json",
				strings.NewReader(`{"users":[0,1,2,3,4,5,6,7,8],"n":5}`))
		}, http.StatusBadRequest},
		{"batch user out of range", func() (*http.Response, error) {
			return http.Post(ts.URL+"/topn", "application/json",
				strings.NewReader(`{"users":[0,999],"n":5}`))
		}, http.StatusBadRequest},
		{"bad method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/topn", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"reload without body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/reload", "application/json", strings.NewReader(`{}`))
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}
	// The batch-user error names the offender.
	resp, err := http.Post(ts.URL+"/topn", "application/json",
		strings.NewReader(`{"users":[0,999],"n":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(msg.String(), "user 999") {
		t.Fatalf("batch error %q does not name the user", msg.String())
	}
}

func TestReloadSwapsModelAtomically(t *testing.T) {
	srv, model, ts := newTestServer(t)
	before := getTopN(t, ts.URL, 2, 5)

	doubled := model.Clone()
	for i := range doubled.P {
		doubled.P[i] *= 2
	}
	srv.loadModel = func(path string) (*mf.Factors, error) {
		if path != "new.bin" {
			return nil, fmt.Errorf("unexpected path %q", path)
		}
		return doubled, nil
	}
	resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader(`{"model":"new.bin"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rl reloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rl.Generation != 2 {
		t.Fatalf("generation = %d, want 2", rl.Generation)
	}

	after := getTopN(t, ts.URL, 2, 5)
	if after.Generation != 2 {
		t.Fatalf("post-reload generation = %d", after.Generation)
	}
	// Doubling P doubles every score; the ranking is unchanged.
	for i := range before.Items {
		if after.Items[i].ID != before.Items[i].ID {
			t.Fatalf("rank %d: id %d -> %d", i, before.Items[i].ID, after.Items[i].ID)
		}
		if after.Items[i].Score <= before.Items[i].Score {
			t.Fatalf("rank %d: score did not grow: %v -> %v",
				i, before.Items[i].Score, after.Items[i].Score)
		}
	}

	// A model of different shape is rejected and the generation holds.
	srv.loadModel = func(string) (*mf.Factors, error) {
		return mf.NewFactorsInit(3, 3, 2, 3.5, sparse.NewRand(1)), nil
	}
	resp, err = http.Post(ts.URL+"/reload", "application/json", strings.NewReader(`{"model":"new.bin"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("dim-mismatch reload status %d, want 409", resp.StatusCode)
	}
	if g := getTopN(t, ts.URL, 2, 5).Generation; g != 2 {
		t.Fatalf("generation moved to %d after failed reload", g)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, _, ts := newTestServer(t)
	getTopN(t, ts.URL, 0, 5) // generate one sample

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "generation=1") {
		t.Fatalf("healthz: %q", body.String())
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	// The text format pads columns; compare with collapsed whitespace.
	flat := strings.Join(strings.Fields(body.String()), " ")
	for _, want := range []string{"serve/requests_total 1", "serve/users_scored_total 1", "serve/request_seconds count 1"} {
		if !strings.Contains(flat, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body.String())
		}
	}
}

func TestLoadServeModel(t *testing.T) {
	if _, err := loadServeModel("", "", 1); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadServeModel("a", "1x1x1", 1); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := loadServeModel("", "abc", 1); err == nil {
		t.Fatal("bad shape accepted")
	}
	if _, err := loadServeModel("", "0x5x5", 1); err == nil {
		t.Fatal("zero dim accepted")
	}
	m, err := loadServeModel("", "12x9x4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.M != 12 || m.N != 9 || m.K != 4 {
		t.Fatalf("shape %dx%dx%d", m.M, m.N, m.K)
	}
	// Same seed, same factors: the synthetic model is reproducible.
	m2, _ := loadServeModel("", "12x9x4", 7)
	for i := range m.P {
		if m.P[i] != m2.P[i] {
			t.Fatal("synthetic model not seeded")
		}
	}
}

func TestOversizedBatchBodyRejected(t *testing.T) {
	srv, _, ts := newTestServer(t)
	limit := batchBodyLimit(srv.maxBatch)
	// A well-formed batch whose whitespace pushes it past the bound is
	// refused before decoding finishes.
	body := `{"users":[0,1` + strings.Repeat(" ", int(limit)) + `],"n":5}`
	resp, err := http.Post(ts.URL+"/topn", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	// A full batch of the widest user ids still fits the bound: it gets
	// past decoding and is refused for its out-of-range users instead.
	ids := make([]string, srv.maxBatch)
	for i := range ids {
		ids[i] = "-2147483648"
	}
	widest := `{"users":[` + strings.Join(ids, ", ") + `],"n":5}`
	resp, err = http.Post(ts.URL+"/topn", "application/json", strings.NewReader(widest))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("widest full batch: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

func TestOversizedReloadBodyRejected(t *testing.T) {
	srv, _, ts := newTestServer(t)
	loads := 0
	srv.loadModel = func(string) (*mf.Factors, error) {
		loads++
		return nil, fmt.Errorf("no model")
	}
	// A path longer than the bound is refused while decoding, before the
	// loader ever sees it.
	body := `{"model":"` + strings.Repeat("a", reloadBodyLimit) + `"}`
	resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reload: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if loads != 0 {
		t.Fatalf("oversized reload reached the loader %d times", loads)
	}
	// A PATH_MAX-long path still fits and reaches the loader.
	body = `{"model":"` + strings.Repeat("a", 4096) + `"}`
	resp, err = http.Post(ts.URL+"/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || loads != 1 {
		t.Fatalf("PATH_MAX reload: status %d, %d loads; want %d, 1 load", resp.StatusCode, loads, http.StatusBadRequest)
	}
}

func TestSlowHeaderConnectionClosed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	hs := newHTTPServer(srv)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout ||
		hs.WriteTimeout != writeTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("deadlines not wired: %v %v %v %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	// Same server, a deadline short enough for a test.
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = hs
	ts.Start()
	t.Cleanup(ts.Close)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the header block never ends.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: test\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server held a slow-header connection open for %v", time.Since(start))
	}
}
