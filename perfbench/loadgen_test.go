package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"pbqpdnn/internal/serve"
)

func TestPoissonScheduleReproduces(t *testing.T) {
	const rate, window = 350.0, 10 * time.Second
	a := poissonSchedule(7, rate, window)
	if !reflect.DeepEqual(a, poissonSchedule(7, rate, window)) {
		t.Fatal("same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rate, window)) {
		t.Fatal("different seeds drew the same schedule")
	}
	if len(a) != 3500 {
		t.Fatalf("%d arrivals, want rate·window = 3500", len(a))
	}
	var sum, sumSq float64
	prev := time.Duration(0)
	for _, at := range a {
		if at < prev || at >= window {
			t.Fatalf("arrival %v out of order or outside [0, %v)", at, window)
		}
		gap := (at - prev).Seconds()
		sum += gap
		sumSq += gap * gap
		prev = at
	}
	// A Poisson process has exponential gaps: mean 1/rate and a
	// coefficient of variation of 1.
	mean := sum / float64(len(a))
	cv := math.Sqrt(sumSq/float64(len(a))-mean*mean) / mean
	if math.Abs(mean*rate-1) > 0.05 || math.Abs(cv-1) > 0.1 {
		t.Fatalf("gaps: mean %v s (want %v), coefficient of variation %.3f (want 1)", mean, 1/rate, cv)
	}
	if !reflect.DeepEqual(imageOrder(7, "open", 100, 8), imageOrder(7, "open", 100, 8)) {
		t.Fatal("same seed drew two different image orders")
	}
}

func TestInputsReproduce(t *testing.T) {
	a, err := makeInputs(3, 4, 3, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(3, 4, 3, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeInputs(4, 4, 3, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Bodies {
		if !bytes.Equal(a.Bodies[i], b.Bodies[i]) {
			t.Fatalf("image %d: same seed encoded two different bodies", i)
		}
		if bytes.Equal(a.Bodies[i], c.Bodies[i]) {
			t.Fatalf("image %d: different seeds encoded the same body", i)
		}
		var req serve.InferRequest
		if err := json.Unmarshal(a.Bodies[i], &req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.Data, a.Data[i]) || len(req.Data) != 3*8*8 {
			t.Fatalf("image %d: body does not decode to the image", i)
		}
	}
}

// TestFailureAccounting drives a fake server that answers each request
// by its id: a 429, a 500, a reset stream (a transport error), a wrong
// output, an output of the wrong length, a correct one, and a
// correct-looking one for an image with no expected output. All but
// the sixth count once as failed, fail the run and never count toward
// goodput.
func TestFailureAccounting(t *testing.T) {
	right, wrong := []float32{1, 2, 3}, []float32{1, 2, 4}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.Atoi(r.Header.Get(requestHeader))
		switch id {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusInternalServerError)
		case 3:
			panic(http.ErrAbortHandler)
		case 4:
			json.NewEncoder(w).Encode(serve.InferResponse{Shape: [3]int{3, 1, 1}, Output: wrong})
		case 5:
			json.NewEncoder(w).Encode(serve.InferResponse{Shape: [3]int{3, 1, 1}, Output: right[:2]})
		default:
			json.NewEncoder(w).Encode(serve.InferResponse{Shape: [3]int{3, 1, 1}, Output: right})
		}
	}))
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	ts.Config.Protocols = &p
	ts.Start()
	defer ts.Close()

	c := newClient(ts.Listener.Addr().String(), "m", nil)
	defer c.close()
	c.want, c.shape = map[int][]float32{0: right}, [3]int{3, 1, 1}
	outs := make([]outcome, 7)
	outs[6].Image = 1
	for i := range outs {
		outs[i].Sched = time.Now()
		c.do(context.Background(), &outs[i], []byte(`{"data":[0]}`))
	}
	if outs[2].Err == nil {
		t.Fatal("aborted stream: want a transport error")
	}
	for i, want := range []bool{true, true, true, true, true, false, true} {
		if outs[i].Failed() != want {
			t.Errorf("request %d: Failed() = %v, want %v (status %d, err %v, wrong %v)",
				i+1, outs[i].Failed(), want, outs[i].Status, outs[i].Err, outs[i].Wrong)
		}
	}
	r := &run{got: map[string]float64{}}
	r.countOutcomes(outs)
	if r.attempted != 7 || r.failed != 6 || len(r.problems) != 6 {
		t.Fatalf("run counted %d attempted, %d failed, %d failed checks; want 7, 6, 6", r.attempted, r.failed, len(r.problems))
	}
	got := tallyOutcomes(outs, time.Hour)
	if want := (tally{Attempted: 7, Failed: 6, Good: 1}); got != want {
		t.Fatalf("tally %+v, want %+v", got, want)
	}
	// The one correct reply misses a limit it cannot meet: it is
	// neither good nor failed.
	if got := tallyOutcomes(outs, -time.Second); got != (tally{Attempted: 7, Failed: 6}) {
		t.Fatalf("tally under an unmeetable limit %+v", got)
	}
	if n := len(servedLatencies(outs)); n != 4 {
		t.Fatalf("%d served latencies, want 4 (the four 200 replies)", n)
	}
}

// TestWindowRates checks the capacity samples: only replies answered
// 200 inside the phase count, each in the window it completed in, and
// a partial window at the phase's end is dropped.
func TestWindowRates(t *testing.T) {
	end := time.Now()
	window := 2*capacityWindow + capacityWindow/2
	start := end.Add(-window)
	at := func(d time.Duration) outcome { return outcome{Status: http.StatusOK, Done: start.Add(d)} }
	outs := []outcome{
		at(capacityWindow / 2), at(capacityWindow / 3), // first window
		at(capacityWindow + 1),        // second window
		at(-time.Millisecond),         // before the phase
		at(2*capacityWindow + 1),      // the partial window
		at(window + time.Millisecond), // after the phase
		{Status: http.StatusTooManyRequests, Done: start.Add(1)},
		{Err: errors.New("reset"), Done: start.Add(1)},
	}
	got := windowRates(outs, end, window)
	per := 1 / capacityWindow.Seconds()
	if want := []float64{2 * per, per}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
}
