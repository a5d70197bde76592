package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/obs"
	"pbqpdnn/internal/serve"
	"pbqpdnn/internal/tensor"
)

// The serving workload: smallnet behind the stock serve.NewServer
// handler on loopback, with the analytic Intel Haswell plans the server
// selects by default, driven by an open-loop Poisson phase and a
// closed-loop phase. README.md gives the parent measurements the rate
// and the latency limit were taken from.
const (
	serveModel = "smallnet"
	// openRate is the open-loop offered load (requests/s); latencyLimit
	// the latency a reply must meet to count toward goodput.
	openRate     = 150.0
	latencyLimit = 20 * time.Millisecond
	// serveImages is the number of distinct seeded inputs, every one
	// compared against exec.Reference.
	serveImages = 64
	// openShare is the share of --seconds spent in the open-loop phase;
	// the closed-loop phase takes the rest.
	openShare = 0.65
	// An untraced run splits both phases into serveRounds rounds, each
	// an open-loop slice followed by a closed-loop slice, so each
	// phase's samples span the whole run and see the same host drift
	// instead of one contiguous stretch of it.
	serveRounds = 6
	// At each idle point (see idleSamples) an untraced run builds the
	// registry setupsPerPoint times and calls the bucket-1 engine
	// batch1Reps times; setup_s and batch1_ms are the medians.
	setupsPerPoint = 3
	batch1Reps     = 429
)

// maxBatch is cmd/dnnserver's -max-batch default; the closed-loop
// phase keeps this many requests outstanding.
const maxBatch = 8

// calibrateReps and calibrateTopK are cmd/dnnserver's -calibrate-reps
// and -calibrate-top defaults, the arguments a calibrate-on-start
// registry measures with; a traced run times that calibration.
const (
	calibrateReps = 1
	calibrateTopK = 4
)

// closedDraws is how many seeded image choices a closed-loop phase
// cycles through.
const closedDraws = 1 << 12

// analyticProfiler names the cost source every workload's plans are
// selected against.
var analyticProfiler = "analytic-" + cost.IntelHaswell.Name

// registryConfig is the configuration cmd/dnnserver's defaults build.
func registryConfig(profileSample int) serve.Config {
	return serve.Config{
		Threads:       runtime.GOMAXPROCS(0),
		ProfileSample: profileSample,
		Batch:         serve.BatchOptions{MaxBatch: maxBatch, MaxWait: 2 * time.Millisecond},
	}
}

// session is one registry served over loopback with the client that
// drives it.
type session struct {
	reg *serve.Registry
	m   *serve.Model
	srv *http.Server
	c   *client
	// served is closed when the server's Serve loop has returned.
	served chan struct{}
	// handlers counts traced handler calls still to record their span.
	handlers sync.WaitGroup
}

// startSession serves reg's model on a loopback port over HTTP/1.1 and
// unencrypted HTTP/2. With a tracer the stock handler is wrapped to
// record a "serve.Handler" span per request.
func startSession(reg *serve.Registry, model string, tr *tracer) (*session, error) {
	m, ok := reg.Get(model)
	if !ok {
		return nil, fmt.Errorf("perfbench: model %q not hosted", model)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &session{reg: reg, m: m, served: make(chan struct{})}
	h := serve.NewServer(reg)
	if tr != nil {
		h = spanHandler{next: h, tr: tr, pending: &s.handlers}
	}
	var p http.Protocols
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	s.srv = &http.Server{Handler: h, Protocols: &p}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed once stop closes it
	}()
	s.c = newClient(ln.Addr().String(), model, tr)
	s.c.shape = [3]int{m.OutC, m.OutH, m.OutW}
	return s, nil
}

// stop closes the client's connections and the server, waits for the
// server to stop serving, then drains the registry.
func (s *session) stop() {
	s.c.close()
	s.srv.Close()
	<-s.served
	s.reg.Close()
}

// warm sends one round of maxBatch concurrent requests and one single
// request, so the HTTP/2 connection is up and the bucket engines have
// allocated their frames before timing starts.
func (s *session) warm(ctx context.Context, in *inputSet) []outcome {
	outs := make([]outcome, maxBatch+1)
	var wg sync.WaitGroup
	for i := range maxBatch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[i]
			o.Image = i % len(in.Bodies)
			o.Sched = time.Now()
			s.c.do(ctx, o, in.Bodies[o.Image])
		}()
	}
	wg.Wait()
	o := &outs[maxBatch]
	o.Sched = time.Now()
	s.c.do(ctx, o, in.Bodies[0])
	return outs
}

// settle waits until every traced handler call has recorded its span.
// A client can read a reply before the handler that wrote it records
// its span, so a phase's spans are complete only after settle; call it
// once the generator has stopped sending.
func (s *session) settle() { s.handlers.Wait() }

// spanHandler wraps the stock handler to record one span per request,
// joined to the client's span through the request headers.
type spanHandler struct {
	next    http.Handler
	tr      *tracer
	pending *sync.WaitGroup
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.pending.Add(1)
	defer h.pending.Done()
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	req, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
	h.tr.add(h.tr.newID(), "serve.Handler", parent, req, start, end)
}

// phasesSince returns the request-lifecycle histograms of the requests
// served since before was taken. The batcher observes a batch's respond
// phase after its replies are out, so it waits (up to a second) for
// that phase's count to catch up with the engine phase's; call it once
// the generator has stopped sending.
func phasesSince(m *serve.Model, before map[string]obs.HistogramSnapshot) map[string]obs.HistogramSnapshot {
	deadline := time.Now().Add(time.Second)
	for {
		after := m.Metrics.PhaseSnapshots()
		if after["respond"].Count == after["engine"].Count || time.Now().After(deadline) {
			return phaseDelta(before, after)
		}
		time.Sleep(time.Millisecond)
	}
}

// phaseDelta is the difference between two Metrics.PhaseSnapshots.
func phaseDelta(before, after map[string]obs.HistogramSnapshot) map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot, len(after))
	for name, a := range after {
		b := before[name]
		d := obs.HistogramSnapshot{Counts: make([]int64, len(a.Counts)), SumNS: a.SumNS - b.SumNS, Count: a.Count - b.Count}
		for i := range a.Counts {
			d.Counts[i] = a.Counts[i]
			if i < len(b.Counts) {
				d.Counts[i] -= b.Counts[i]
			}
		}
		out[name] = d
	}
	return out
}

// breakdown splits the mean client latency of a phase's served
// requests into layers: transport (client time not spent in the
// handler), the handler's self time (decode, validate, flatten,
// encode: handler time not in any batcher phase), and the four batcher
// phases. The first two are defined as differences, so the layers add
// up to ClientMS by construction.
type breakdown struct {
	ClientMS, TransportMS, HandlerMS, HandlerSelfMS float64
	PhaseMS                                         map[string]float64
}

// accountLayers joins a phase's served outcomes with their handler
// spans by request id and with the phase's histogram delta.
func accountLayers(outs []outcome, spans []Span, phases map[string]obs.HistogramSnapshot) (breakdown, error) {
	handler := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "serve.Handler" {
			handler[s.Request] = s.Duration()
		}
	}
	var b breakdown
	n := 0
	for i := range outs {
		o := &outs[i]
		if o.Err != nil || o.Status != http.StatusOK {
			continue
		}
		h, ok := handler[o.ID]
		if !ok {
			return b, fmt.Errorf("perfbench: no handler span for request %d", o.ID)
		}
		client := o.Done.Sub(o.Sent)
		b.ClientMS += ms(client)
		b.HandlerMS += ms(h)
		b.TransportMS += ms(client - h)
		n++
	}
	if n == 0 {
		return b, errors.New("perfbench: no served requests to account")
	}
	b.ClientMS /= float64(n)
	b.HandlerMS /= float64(n)
	b.TransportMS /= float64(n)
	b.HandlerSelfMS = b.HandlerMS
	b.PhaseMS = map[string]float64{}
	for _, name := range serve.PhaseNames {
		m := phases[name].MeanMS()
		b.PhaseMS[name] = m
		b.HandlerSelfMS -= m
	}
	return b, nil
}

// runServe runs the serving workload. An untraced run measures the
// end-to-end metrics; a traced run (r.tr set) the per-layer ones.
func runServe(r *run) error {
	if r.tr != nil {
		return runServeTraced(r)
	}
	reg, err := serve.NewRegistry([]string{serveModel}, registryConfig(16))
	if err != nil {
		return err
	}
	s, err := startSession(reg, serveModel, nil)
	if err != nil {
		reg.Close()
		return err
	}
	defer s.stop()
	in, err := makeInputs(r.seed, serveImages, s.m.InC, s.m.InH, s.m.InW)
	if err != nil {
		return err
	}
	if s.c.want, err = references(nil, s.m, in); err != nil {
		return err
	}
	ctx := context.Background()
	warm := s.warm(ctx, in)
	eng := s.m.Buckets[0].Engine
	var idle idleSamples

	// One Poisson schedule over the whole open-loop time, cut into
	// serveRounds slices; each slice is sent from its own round's start.
	openWin, closedWin := r.windows()
	openSlice, closedSlice := openWin/serveRounds, closedWin/serveRounds
	sched := poissonSchedule(r.seed, openRate, openWin)
	images := imageOrder(r.seed, "open-images", len(sched), serveImages)
	var open, closed []outcome
	var openElapsed time.Duration
	var rates []float64
	for k := range serveRounds {
		if err := idle.take(eng, in); err != nil {
			return err
		}
		lo := sort.Search(len(sched), func(i int) bool { return sched[i] >= time.Duration(k)*openSlice })
		hi := sort.Search(len(sched), func(i int) bool { return sched[i] >= time.Duration(k+1)*openSlice })
		slice := make([]time.Duration, hi-lo)
		for i, at := range sched[lo:hi] {
			slice[i] = at - time.Duration(k)*openSlice
		}
		start := time.Now()
		round := s.c.openLoop(ctx, in, slice, images[lo:hi])
		openElapsed += time.Since(start)
		open = append(open, round...)
		outs, end := s.c.closedLoop(ctx, in, maxBatch, closedSlice,
			imageOrder(r.seed, fmt.Sprintf("closed-images/%d", k), closedDraws, serveImages))
		rr := windowRates(outs, end, closedSlice)
		rates = append(rates, rr...)
		closed = append(closed, outs...)
		r.note("round %d: open-loop p50 %.3f ms over %d requests, closed-loop capacity %.0f rps (median of %d windows)",
			k, quantileMS(servedLatencies(round), 0.5), len(round), median(rr), len(rr))
	}
	if err := idle.take(eng, in); err != nil {
		return err
	}
	r.got["peak_rss_mb"] = peakRSSMB()
	r.got["setup_s"] = median(idle.setups)
	r.got["batch1_ms"] = median(idle.batch1)
	r.prov.Plans = idle.stamps[0]
	r.prov.Profiler = analyticProfiler
	r.check(checkRepeat(r.dir, r.prov, idle.stamps))

	r.countOutcomes(warm, open, closed)
	ot := tallyOutcomes(open, latencyLimit)
	lats := servedLatencies(open)
	r.got["latency_p50_ms"] = quantileMS(lats, 0.50)
	r.got["goodput_rps"] = float64(ot.Good) / openElapsed.Seconds()
	capacity := median(rates)
	r.got["capacity_rps"] = capacity
	r.got["images_per_s"] = capacity
	r.note("open loop: %d requests at %.0f/s, %d served, %d good within %v; latency over %d samples: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (p90 and p99 are not gated, see README)",
		ot.Attempted, openRate, len(lats), ot.Good, latencyLimit, len(lats),
		r.got["latency_p50_ms"], quantileMS(lats, 0.90), quantileMS(lats, 0.99))
	return nil
}

// runServeTraced is the traced run of the serving workload. It measures
// the headline metric (capacity_rps) twice: once on an untraced
// registry, once on a registry profiling every batch behind the
// span-recording handler; the difference is trace.overhead_share.
func runServeTraced(r *run) error {
	net, err := models.Build(serveModel)
	if err != nil {
		return err
	}
	cfg := registryConfig(16)
	// The calibration a calibrate-on-start registry would run, timed on
	// its own; the registries below select against the analytic model.
	prof := cost.NewModel(cost.IntelHaswell)
	tab := cost.NewTable("calibrated-"+runtime.GOOS+"-"+runtime.GOARCH, cfg.Threads)
	d := r.tr.timed("cost.Table.AddNetTopK", 0, func() {
		tab.AddNetTopK(net, conv.Library(), prof, &cost.Measure{Reps: calibrateReps, Threads: cfg.Threads},
			[]int{1, 2, 4, maxBatch}, calibrateTopK)
	})
	r.got["cost.calibrate_s"] = d.Seconds()
	r.prov.Profiler = analyticProfiler
	ctx := context.Background()
	openWin, closedWin := r.windows()

	// Untraced pass: the capacity the overhead is measured against.
	var regU *serve.Registry
	r.tr.timed("serve.NewRegistry", 0, func() { regU, err = serve.NewRegistry([]string{serveModel}, cfg) })
	if err != nil {
		return err
	}
	u, err := startSession(regU, serveModel, nil)
	if err != nil {
		regU.Close()
		return err
	}
	in, err := makeInputs(r.seed, serveImages, u.m.InC, u.m.InH, u.m.InW)
	if err != nil {
		u.stop()
		return err
	}
	want, err := references(r.tr, u.m, in)
	if err != nil {
		u.stop()
		return err
	}
	u.c.want = want
	warmU := u.warm(ctx, in)
	closedU, endU := u.c.closedLoop(ctx, in, maxBatch, closedWin, imageOrder(r.seed, "closed-images", closedDraws, serveImages))
	u.stop()
	capU := median(windowRates(closedU, endU, closedWin))

	// Traced pass.
	cfg.ProfileSample = 1
	var reg *serve.Registry
	r.tr.timed("serve.NewRegistry", 0, func() { reg, err = serve.NewRegistry([]string{serveModel}, cfg) })
	if err != nil {
		return err
	}
	s, err := startSession(reg, serveModel, r.tr)
	if err != nil {
		reg.Close()
		return err
	}
	defer s.stop()
	r.prov.Plans = modelStamps(s.m)
	s.c.want = want
	warm := s.warm(ctx, in)

	sched := poissonSchedule(r.seed, openRate, openWin)
	before := s.m.Metrics.PhaseSnapshots()
	openStart := time.Now()
	s.c.phase = r.tr.newID()
	open := s.c.openLoop(ctx, in, sched, imageOrder(r.seed, "open-images", len(sched), serveImages))
	r.tr.add(s.c.phase, "loadgen.OpenLoop", 0, 0, openStart, time.Now())
	phases := phasesSince(s.m, before)
	s.settle()

	statsBefore := s.m.Metrics.Snapshot()
	closedStart := time.Now()
	s.c.phase = r.tr.newID()
	closed, end := s.c.closedLoop(ctx, in, maxBatch, closedWin, imageOrder(r.seed, "closed-images", closedDraws, serveImages))
	r.tr.add(s.c.phase, "loadgen.ClosedLoop", 0, 0, closedStart, time.Now())
	statsAfter := s.m.Metrics.Snapshot()
	capT := median(windowRates(closed, end, closedWin))
	if capU > 0 {
		r.got["trace.overhead_share"] = 1 - capT/capU
	}

	lay, err := accountLayers(open, r.tr.snapshot(), phases)
	if err != nil {
		return err
	}
	for _, name := range serve.PhaseNames {
		r.got["serve."+name+"_ms.p50"] = ms(phases[name].Quantile(0.5))
	}
	r.got["serve.handler_self_ms.mean"] = lay.HandlerSelfMS
	r.got["serve.transport_ms.mean"] = lay.TransportMS
	r.note("layer accounting: client %.3f ms = transport %.3f + handler self %.3f + phases %v",
		lay.ClientMS, lay.TransportMS, lay.HandlerSelfMS, lay.PhaseMS)
	if dB := statsAfter.Batches - statsBefore.Batches; dB > 0 {
		r.got["serve.mean_batch"] = (statsAfter.MeanBatch*float64(statsAfter.Batches) - statsBefore.MeanBatch*float64(statsBefore.Batches)) / float64(dB)
	}
	r.got["serve.rejected"] = float64(statsAfter.Rejected)
	r.got["serve.expired"] = float64(statsAfter.Expired)
	late := time.Duration(0)
	for i := range open {
		late = max(late, open[i].Sent.Sub(open[i].Sched))
	}
	r.got["loadgen.late_ms.max"] = ms(late)
	for _, bs := range s.m.BucketStats() {
		r.got[fmt.Sprintf("exec.ns_per_image.b%d", bs.Batch)] = bs.ObservedNsPerImage
	}

	peak := packedGFLOPS(r.tr, 5)
	r.got["gemm.packed_gflops"] = peak
	for _, b := range buckets {
		engineLayers(r.got, s.m.EngineFor(b), peak)
	}
	if err := planLayers(r.got, r.tr, net, prof); err != nil {
		return err
	}
	r.countOutcomes(warmU, closedU, warm, open, closed)
	return nil
}

// references computes the exec.Reference output of every input, in
// the wire's CHW order, outside any timed window.
func references(tr *tracer, m *serve.Model, in *inputSet) (map[int][]float32, error) {
	want := make(map[int][]float32, len(in.Data))
	for img, d := range in.Data {
		x := tensor.NewWith(tensor.CHW, in.C, in.H, in.W, d)
		var ref *tensor.Tensor
		var err error
		tr.timed("exec.Reference", 0, func() { ref, err = exec.Reference(m.Net, x, m.Weights) })
		if err != nil {
			return nil, err
		}
		want[img] = flatCHW(ref)
	}
	return want, nil
}

// countOutcomes counts each phase's requests toward attempted and
// failed. Every failed request (a transport error, any status but 200,
// a wrong output) also fails the run.
func (r *run) countOutcomes(phases ...[]outcome) {
	for _, outs := range phases {
		for i := range outs {
			o := &outs[i]
			r.attempted++
			if o.Failed() {
				r.failed++
				r.check(fmt.Errorf("perfbench: request %d (image %d) failed: status %d, error %v, wrong output %v",
					o.ID, o.Image, o.Status, o.Err, o.Wrong))
			}
		}
	}
	if r.attempted > 0 {
		r.got["failed_share"] = float64(r.failed) / float64(r.attempted)
	}
}

// capacityWindow is the slice of a closed-loop phase one capacity
// sample counts replies over. capacity_rps is the median of these
// samples, so a host stall of a second costs a few samples instead of
// a share of the phase's mean.
const capacityWindow = 250 * time.Millisecond

// windowRates splits the closed-loop phase [end-window, end) into
// consecutive capacityWindow slices and returns, per whole slice, the
// replies answered 200 within it per second. Replies after end are not
// counted.
func windowRates(outs []outcome, end time.Time, window time.Duration) []float64 {
	counts := make([]int, window/capacityWindow)
	start := end.Add(-window)
	for i := range outs {
		o := &outs[i]
		if o.Err != nil || o.Status != http.StatusOK || o.Done.Before(start) {
			continue
		}
		if k := int(o.Done.Sub(start) / capacityWindow); k < len(counts) {
			counts[k]++
		}
	}
	rates := make([]float64, len(counts))
	for k, n := range counts {
		rates[k] = float64(n) / capacityWindow.Seconds()
	}
	return rates
}

// modelStamps fingerprints every bucket of a served model.
func modelStamps(m *serve.Model) []PlanStamp {
	out := make([]PlanStamp, 0, len(m.Buckets))
	for _, b := range m.Buckets {
		out = append(out, stampPlan(b.Plan, b.Engine.Program()))
	}
	return out
}

// idleSamples holds what an untraced serving run measures while no
// request is in flight: registry builds (seconds each) with their plan
// stamps, and single-image bucket-1 RunBatch calls (ms each). They are
// taken before each round and after the last: the host's speed wanders
// over seconds, so samples spread over the run give steadier medians
// than one burst at its start.
type idleSamples struct {
	setups []float64
	stamps [][]PlanStamp
	batch1 []float64
}

// take builds the registry setupsPerPoint times, closing each build,
// then calls eng batch1Reps times on single images, cycling through
// the inputs. It ends with a collection, so every round starts from
// the same heap rather than from whatever garbage the builds left.
func (x *idleSamples) take(eng *exec.Engine, in *inputSet) error {
	for range setupsPerPoint {
		start := time.Now()
		reg, err := serve.NewRegistry([]string{serveModel}, registryConfig(16))
		if err != nil {
			return err
		}
		x.setups = append(x.setups, time.Since(start).Seconds())
		m, _ := reg.Get(serveModel)
		x.stamps = append(x.stamps, modelStamps(m))
		reg.Close()
	}
	for i := range batch1Reps {
		x1 := tensor.NewWith(tensor.CHW, in.C, in.H, in.W, in.Data[i%len(in.Data)])
		start := time.Now()
		if _, err := eng.RunBatch([]*tensor.Tensor{x1}); err != nil {
			return err
		}
		x.batch1 = append(x.batch1, ms(time.Since(start)))
	}
	runtime.GC()
	return nil
}

// flatCHW reads a tensor in logical CHW order, the wire format.
func flatCHW(t *tensor.Tensor) []float32 {
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
