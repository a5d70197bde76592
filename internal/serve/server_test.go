package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newTestRegistry hosts micronet — the smallest real network — behind
// a real selected plan and compiled engine.
func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry([]string{"micronet"}, Config{
		Threads: 2,
		Batch:   BatchOptions{MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

func postInfer(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerInference is the end-to-end HTTP smoke: POST one image,
// expect 200, the declared output shape, and a softmax that sums to 1.
func TestServerInference(t *testing.T) {
	reg := newTestRegistry(t)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	m, _ := reg.Get("micronet")
	data := make([]float32, m.InC*m.InH*m.InW)
	for i := range data {
		data[i] = float32(i%7) * 0.1
	}
	resp := postInfer(t, srv, "/v1/models/micronet/infer", InferRequest{Data: data})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Shape != [3]int{m.OutC, m.OutH, m.OutW} {
		t.Errorf("shape %v, want %v", out.Shape, [3]int{m.OutC, m.OutH, m.OutW})
	}
	if len(out.Output) != m.OutC*m.OutH*m.OutW {
		t.Fatalf("output has %d elements, want %d", len(out.Output), m.OutC*m.OutH*m.OutW)
	}
	var sum float64
	for _, v := range out.Output {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("softmax output sums to %g, want 1", sum)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	reg := newTestRegistry(t)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	cases := []struct {
		name, path string
		body       any
		want       int
	}{
		{"unknown model", "/v1/models/nope/infer", InferRequest{Data: make([]float32, 3*16*16)}, http.StatusNotFound},
		{"wrong length", "/v1/models/micronet/infer", InferRequest{Data: make([]float32, 5)}, http.StatusBadRequest},
		{"bad timeout", "/v1/models/micronet/infer?timeout_ms=zero", InferRequest{Data: make([]float32, 3*16*16)}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postInfer(t, srv, c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/models/micronet/infer", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestServerBoundsRequestBody: a body past the model's limit is
// answered 413 without being decoded, while a valid body of exactly the
// limit — every element at the widest float32 form, padded with
// whitespace — is still served.
func TestServerBoundsRequestBody(t *testing.T) {
	reg := newTestRegistry(t)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()
	m, _ := reg.Get("micronet")
	limit := maxInferBody(m)

	body := func(size int64) []byte {
		b := []byte(`{"data":[`)
		for i := 0; i < m.InC*m.InH*m.InW; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "-1.1754944e-38"...)
		}
		b = append(b, ']')
		if pad := size - int64(len(b)) - 1; pad >= 0 {
			b = append(b, bytes.Repeat([]byte(" "), int(pad))...)
		} else {
			t.Fatalf("widest valid body is %d bytes, over the %d-byte limit", len(b)+1, size)
		}
		return append(b, '}')
	}
	for _, c := range []struct {
		size int64
		want int
	}{
		{limit, http.StatusOK},
		{limit + 1, http.StatusRequestEntityTooLarge},
		{4 * limit, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(srv.URL+"/v1/models/micronet/infer", "application/json", bytes.NewReader(body(c.size)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%d-byte body (limit %d): status %d, want %d", c.size, limit, resp.StatusCode, c.want)
		}
	}
}

func TestServerIntrospection(t *testing.T) {
	reg := newTestRegistry(t)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "micronet" || infos[0].InputShape != [3]int{3, 16, 16} {
		t.Errorf("/models = %+v", infos)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := stats["micronet"]; !ok {
		t.Errorf("/stats missing micronet: %v", stats)
	}
}

// TestRegistryUnknownModel: a bad name fails loading and leaves nothing
// running.
func TestRegistryUnknownModel(t *testing.T) {
	if _, err := NewRegistry([]string{"micronet", "not-a-net"}, Config{}); err == nil {
		t.Fatal("unknown model should fail registry construction")
	}
}

// TestLoadTestSmoke drives both the batched path and the naive baseline
// end to end on micronet and sanity-checks the reports. (The perf
// comparison itself is the EXPERIMENTS.md acceptance run via
// dnnserver -loadgen; asserting speedups in unit tests invites flakes.)
func TestLoadTestSmoke(t *testing.T) {
	reg := newTestRegistry(t)
	m, _ := reg.Get("micronet")

	o := LoadOptions{Clients: 4, PerClient: 3}
	batched, err := LoadTest(m, o)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveLoadTest(m, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []LoadReport{batched, naive} {
		if r.Requests != 12 || r.Errors != 0 {
			t.Errorf("%s: %d requests, %d errors", r.Mode, r.Requests, r.Errors)
		}
		if r.MeanLatency <= 0 || r.P99 < r.P50 {
			t.Errorf("%s: degenerate latencies %+v", r.Mode, r)
		}
	}
	if batched.MeanBatch < 1 {
		t.Errorf("batched mean batch %.2f < 1", batched.MeanBatch)
	}
	if naive.MeanBatch != 1 {
		t.Errorf("naive mean batch %.2f, want exactly 1", naive.MeanBatch)
	}
	if out := FormatLoadComparison("micronet", batched, naive); len(out) == 0 {
		t.Error("empty comparison output")
	}
}

// TestLoadTestOpenLoop exercises the open-loop arrival schedule with a
// per-request deadline: every request must be accounted for exactly
// once across served/rejected/expired/errors, and offered load must be
// derived from the interval.
func TestLoadTestOpenLoop(t *testing.T) {
	reg := newTestRegistry(t)
	m, _ := reg.Get("micronet")

	o := LoadOptions{Clients: 2, PerClient: 5, Interval: time.Millisecond, Deadline: 100 * time.Millisecond}
	for _, run := range []func(*Model, LoadOptions) (LoadReport, error){LoadTest, NaiveLoadTest} {
		rep, err := run(m, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != 10 {
			t.Errorf("%s: %d requests, want 10", rep.Mode, rep.Requests)
		}
		if got := rep.Served + rep.Rejected + rep.Expired + rep.Errors; got != rep.Requests {
			t.Errorf("%s: outcomes sum to %d of %d (%+v)", rep.Mode, got, rep.Requests, rep)
		}
		if rep.OfferedRPS != 2000 {
			t.Errorf("%s: offered %.0f rps, want 2000", rep.Mode, rep.OfferedRPS)
		}
		if rep.Late > rep.Served {
			t.Errorf("%s: %d late exceeds %d served", rep.Mode, rep.Late, rep.Served)
		}
	}
}
