package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbqpdnn/internal/serve"
	"pbqpdnn/internal/tensor"
)

// requestHeader carries a request's id from the generator to the
// wrapped handler, so a traced run can join the client's span with the
// handler's; parentHeader carries the client span's id, the handler
// span's parent.
const (
	requestHeader = "X-Perfbench-Request"
	parentHeader  = "X-Perfbench-Parent"
)

// rngFor returns the seeded random stream for one named use, so adding
// a draw to one stream never shifts another.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// inputSet is a workload's seeded images and their JSON InferRequest
// bodies, encoded before any timing starts.
type inputSet struct {
	C, H, W int
	Data    [][]float32
	Bodies  [][]byte
}

// makeImages draws n seeded CHW images of shape c×h×w, values in
// [-1, 1).
func makeImages(seed int64, n, c, h, w int) [][]float32 {
	rng := rngFor(seed, "images")
	out := make([][]float32, n)
	for k := range out {
		d := make([]float32, c*h*w)
		for i := range d {
			d[i] = rng.Float32()*2 - 1
		}
		out[k] = d
	}
	return out
}

// makeInputs draws n seeded images and encodes their request bodies.
func makeInputs(seed int64, n, c, h, w int) (*inputSet, error) {
	in := &inputSet{C: c, H: h, W: w, Data: makeImages(seed, n, c, h, w)}
	for _, d := range in.Data {
		b, err := json.Marshal(serve.InferRequest{Data: d})
		if err != nil {
			return nil, err
		}
		in.Bodies = append(in.Bodies, b)
	}
	return in, nil
}

// poissonSchedule returns the open-loop send offsets: a Poisson process
// at rate per second over window, conditioned on exactly
// round(rate·window) arrivals. Given its count, a Poisson process's
// arrival times are independent uniform draws over the window, sorted;
// conditioning keeps the offered load identical across seeds while the
// burst pattern varies with the seed.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rngFor(seed, "arrivals")
	n := int(math.Round(rate * window.Seconds()))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// imageOrder draws which image each of n requests sends.
func imageOrder(seed int64, stream string, n, images int) []int {
	rng := rngFor(seed, stream)
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(images)
	}
	return out
}

// outcome is one request as the generator saw it. Latency runs from
// sched, when the request was due, so a stall that delays later sends
// counts against them.
type outcome struct {
	ID     int64
	Image  int
	Sched  time.Time
	Sent   time.Time
	Done   time.Time
	Status int
	Err    error
	// Wrong is set by the output check.
	Wrong bool
}

// Failed reports whether the request counts as failed: a transport
// error, any status but 200 (a 429 rejection included), or a wrong
// output.
func (o *outcome) Failed() bool { return o.Err != nil || o.Status != http.StatusOK || o.Wrong }

// Latency is the time from when the request was due to its reply.
func (o *outcome) Latency() time.Duration { return o.Done.Sub(o.Sched) }

// tally counts a phase's outcomes: a failed request never counts as
// good, and a good one is also within the latency limit.
type tally struct {
	Attempted, Failed, Good int
}

func tallyOutcomes(outs []outcome, limit time.Duration) tally {
	var t tally
	for i := range outs {
		o := &outs[i]
		t.Attempted++
		switch {
		case o.Failed():
			t.Failed++
		case o.Latency() <= limit:
			t.Good++
		}
	}
	return t
}

// servedLatencies returns the latencies of the requests answered 200.
func servedLatencies(outs []outcome) []time.Duration {
	var lats []time.Duration
	for i := range outs {
		if outs[i].Err == nil && outs[i].Status == http.StatusOK {
			lats = append(lats, outs[i].Latency())
		}
	}
	return lats
}

// client posts pre-encoded bodies to one model's infer endpoint over
// unencrypted HTTP/2, so a few connections carry every overlapping
// request of an open-loop schedule.
type client struct {
	hc  *http.Client
	url string
	ids atomic.Int64
	// tr records a "client.Request" span per request (nil: untraced);
	// phase is the enclosing phase span, set between phases.
	tr    *tracer
	phase int64
	// want holds the expected output of each image and shape the
	// model's output shape. Every 200 reply is checked against them as
	// it arrives and only the verdict is kept, so the generator's
	// memory does not grow with the replies it has read.
	want  map[int][]float32
	shape [3]int
}

func newClient(addr, model string, tr *tracer) *client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &client{
		hc:  &http.Client{Transport: &http.Transport{Protocols: &p}},
		url: "http://" + addr + "/v1/models/" + model + "/infer",
		tr:  tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request, fills the outcome's reply fields and checks a
// 200 reply's output once the reply is timed.
func (c *client) do(ctx context.Context, o *outcome, body []byte) {
	o.ID = c.ids.Add(1)
	span := c.tr.newID()
	o.Sent = time.Now()
	reply := c.send(ctx, o, span, body)
	o.Done = time.Now()
	c.tr.add(span, "client.Request", c.phase, o.ID, o.Sent, o.Done)
	if o.Err == nil && o.Status == http.StatusOK {
		o.Wrong = !rightOutput(reply, c.want[o.Image], c.shape)
	}
}

// send posts body, sets the outcome's status or error, and returns the
// reply read in full.
func (c *client) send(ctx context.Context, o *outcome, span int64, body []byte) []byte {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		o.Err = err
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestHeader, strconv.FormatInt(o.ID, 10))
	if span != 0 {
		req.Header.Set(parentHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		o.Err = err
		return nil
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	o.Status = resp.StatusCode
	switch {
	case err != nil:
		o.Err = err
	case resp.ProtoMajor != 2:
		o.Err = fmt.Errorf("perfbench: reply over %s, want HTTP/2", resp.Proto)
	}
	return reply
}

// openLoop sends one request per schedule entry at its due time,
// whether or not earlier ones have answered, and waits for every reply.
func (c *client) openLoop(ctx context.Context, in *inputSet, sched []time.Duration, images []int) []outcome {
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, at := range sched {
		o := &outs[i]
		o.Image = images[i]
		o.Sched = t0.Add(at)
		time.Sleep(time.Until(o.Sched))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do(ctx, o, in.Bodies[o.Image])
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop keeps `workers` requests outstanding for window: each
// worker sends its next request when the previous one answers. It
// returns every outcome and the window's end; only replies by the end
// count toward capacity, but every request sent counts as attempted.
func (c *client) closedLoop(ctx context.Context, in *inputSet, workers int, window time.Duration, images []int) ([]outcome, time.Time) {
	var next atomic.Int64
	end := time.Now().Add(window)
	per := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				o := outcome{Image: images[int(next.Add(1))%len(images)]}
				o.Sched = time.Now()
				c.do(ctx, &o, in.Bodies[o.Image])
				per[w] = append(per[w], o)
			}
		}()
	}
	wg.Wait()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, end
}

// rightOutput reports whether a 200 reply decodes to an output of the
// given shape that agrees with want within the repository's 1e-4
// relative tolerance. A reply for an image without an expected output
// (want nil) fails the length test, so it never agrees.
func rightOutput(reply []byte, want []float32, shape [3]int) bool {
	var resp serve.InferResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return false
	}
	return resp.Shape == shape && len(resp.Output) == len(want) &&
		tensor.WithinRel(chw(resp.Output, shape), chw(want, shape), 1e-4)
}

func chw(data []float32, shape [3]int) *tensor.Tensor {
	return tensor.NewWith(tensor.CHW, shape[0], shape[1], shape[2], data)
}
