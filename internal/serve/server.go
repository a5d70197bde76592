package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pbqpdnn/internal/tensor"
)

// InferRequest is the JSON body of POST /v1/models/{model}/infer: the
// input image flattened in logical C-major (CHW) order, length C·H·W.
type InferRequest struct {
	Data []float32 `json:"data"`
}

// InferResponse is the JSON reply: the output tensor flattened in
// logical CHW order plus its shape and the server-side latency.
type InferResponse struct {
	Model     string    `json:"model"`
	Shape     [3]int    `json:"shape"` // C, H, W
	Output    []float32 `json:"output"`
	LatencyMS float64   `json:"latency_ms"`
}

// modelInfo describes one hosted model on GET /models.
type modelInfo struct {
	Name        string `json:"name"`
	InputShape  [3]int `json:"input_shape"`
	OutputShape [3]int `json:"output_shape"`
	Layers      int    `json:"layers"`
	Optimal     bool   `json:"pbqp_optimal"`
}

// ModelStats is one model's /stats entry: the batcher's serving
// counters plus, per batch bucket, the bucket's selected primitives and
// its predicted versus observed ns/image — the live view of whether the
// per-bucket PBQP plans deliver what the cost model promised.
type ModelStats struct {
	Stats
	Buckets []BucketStats `json:"buckets"`
}

func modelStats(reg *Registry) map[string]ModelStats {
	stats := map[string]ModelStats{}
	for _, name := range reg.Names() {
		m, _ := reg.Get(name)
		stats[name] = ModelStats{
			Stats:   m.Metrics.Snapshot(),
			Buckets: m.BucketStats(),
		}
	}
	return stats
}

// NewServer wires a Registry into an http.Handler:
//
//	GET  /healthz                     liveness probe
//	GET  /models                      hosted models and their shapes
//	GET  /stats                       per-model serving metrics (JSON),
//	                                  including per-bucket plans and
//	                                  predicted vs observed ns/image
//	GET  /metrics                     the same counters in Prometheus
//	                                  text format (see prom.go)
//	GET  /layers                      per-layer predicted-vs-observed
//	                                  profile tables per batch bucket
//	                                  (empty until profiling is enabled)
//	POST /v1/models/{model}/infer     one inference through the batcher
//
// Inference honors an optional ?timeout_ms= deadline: expired requests
// are answered 504 and, if still queued at flush time, are pruned
// without touching the engine.
func NewServer(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		infos := make([]modelInfo, 0)
		for _, name := range reg.Names() {
			m, _ := reg.Get(name)
			infos = append(infos, modelInfo{
				Name:        m.Name,
				InputShape:  [3]int{m.InC, m.InH, m.InW},
				OutputShape: [3]int{m.OutC, m.OutH, m.OutW},
				Layers:      m.Net.NumLayers(),
				Optimal:     m.Plan().Optimal,
			})
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, modelStats(reg))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(reg, w, r)
	})
	mux.HandleFunc("GET /layers", func(w http.ResponseWriter, r *http.Request) {
		handleLayers(reg, w, r)
	})
	mux.HandleFunc("POST /v1/models/{model}/infer", func(w http.ResponseWriter, r *http.Request) {
		handleInfer(reg, w, r)
	})
	return mux
}

// PublishExpvar exposes every model's metrics snapshot under the expvar
// map "serve" (readable at /debug/vars when the process also mounts
// expvar.Handler). Call at most once per process.
func PublishExpvar(reg *Registry) {
	expvar.Publish("serve", expvar.Func(func() any {
		return modelStats(reg)
	}))
}

// maxInferBody bounds an inference request body for model m: a
// generous per-element allowance (a float32 in shortest round-trip
// form takes at most 15 bytes, "-1.1754944e-38", so 32 leaves room for
// separators and whitespace) plus the JSON envelope.
func maxInferBody(m *Model) int64 {
	return 32*int64(m.InC*m.InH*m.InW) + 4096
}

func handleInfer(reg *Registry, w http.ResponseWriter, r *http.Request) {
	m, ok := reg.Get(r.PathValue("model"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown model %q (have %v)", r.PathValue("model"), reg.Names())
		return
	}
	var req InferRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInferBody(m))).Decode(&req); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	want := m.InC * m.InH * m.InW
	if len(req.Data) != want {
		httpError(w, http.StatusBadRequest, "input has %d elements, want %d (%d×%d×%d CHW)",
			len(req.Data), want, m.InC, m.InH, m.InW)
		return
	}
	in := tensor.NewWith(tensor.CHW, m.InC, m.InH, m.InW, req.Data)

	ctx := r.Context()
	if tm := r.URL.Query().Get("timeout_ms"); tm != "" {
		ms, err := strconv.Atoi(tm)
		if err != nil || ms <= 0 {
			httpError(w, http.StatusBadRequest, "bad timeout_ms %q: want a positive integer of milliseconds", tm)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	start := time.Now()
	out, err := m.Batcher.Infer(ctx, in)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			httpError(w, http.StatusGatewayTimeout, "%v", err)
		case errors.Is(err, context.Canceled):
			// The client went away while queued: not a server error.
			// 499 is nginx's "client closed request" convention; nobody
			// is listening, but access logs should not count a 500.
			httpError(w, 499, "%v", err)
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, InferResponse{
		Model:     m.Name,
		Shape:     [3]int{out.C, out.H, out.W},
		Output:    flattenCHW(out),
		LatencyMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

// flattenCHW reads a tensor into logical C-major order regardless of
// its physical layout (the plan decides the output layout; the wire
// format should not).
func flattenCHW(t *tensor.Tensor) []float32 {
	out := make([]float32, 0, t.C*t.H*t.W)
	for c := 0; c < t.C; c++ {
		for h := 0; h < t.H; h++ {
			for w := 0; w < t.W; w++ {
				out = append(out, t.At(c, h, w))
			}
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to report
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
