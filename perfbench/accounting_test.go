package main

import (
	"context"
	"net/http"
	"testing"
	"time"

	"pbqpdnn/internal/serve"
)

// TestLayerAccounting serves smallnet traced, as a traced run does,
// and checks what the layer accounting rests on. Transport and handler
// self time are defined as differences, so the layers add up to the
// mean client latency by construction; what can fail is that the phase
// histograms cover exactly the phase's served requests, that every
// request's handler span is parented by its client span and lies
// inside it, that the four phases fit inside the handler time, and
// that transport takes time.
func TestLayerAccounting(t *testing.T) {
	reg, err := serve.NewRegistry([]string{serveModel}, registryConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	s, err := startSession(reg, serveModel, tr)
	if err != nil {
		reg.Close()
		t.Fatal(err)
	}
	defer s.stop()
	const images = 8
	in, err := makeInputs(1, images, s.m.InC, s.m.InH, s.m.InW)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s.warm(ctx, in)

	sched := poissonSchedule(1, 40, 1500*time.Millisecond)
	before := s.m.Metrics.PhaseSnapshots()
	open := s.c.openLoop(ctx, in, sched, imageOrder(1, "open-images", len(sched), images))
	phases := phasesSince(s.m, before)
	s.settle()

	handler := map[int64]Span{}
	clients := map[int64]Span{}
	for _, sp := range tr.snapshot() {
		switch sp.Name {
		case "serve.Handler":
			handler[sp.Request] = sp
		case "client.Request":
			clients[sp.ID] = sp
		}
	}
	for i := range open {
		o := &open[i]
		if o.Err != nil || o.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", o.ID, o.Status, o.Err)
		}
		h, ok := handler[o.ID]
		if !ok {
			t.Fatalf("request %d: no handler span", o.ID)
		}
		c, ok := clients[h.Parent]
		if !ok || c.Request != o.ID {
			t.Fatalf("request %d: handler span's parent %d is not the request's client span", o.ID, h.Parent)
		}
		if h.StartNS < c.StartNS || h.EndNS > c.EndNS {
			t.Fatalf("request %d: handler span [%d, %d] ns does not lie inside its client span [%d, %d] ns",
				o.ID, h.StartNS, h.EndNS, c.StartNS, c.EndNS)
		}
	}
	for _, name := range serve.PhaseNames {
		if got := phases[name].Count; got != int64(len(open)) {
			t.Fatalf("phase %s observed %d requests in the window, want the %d served", name, got, len(open))
		}
	}

	lay, err := accountLayers(open, tr.snapshot(), phases)
	if err != nil {
		t.Fatal(err)
	}
	if lay.HandlerSelfMS < 0 {
		t.Fatalf("the four phases' mean times sum past the mean handler time: %+v", lay)
	}
	if lay.TransportMS <= 0 {
		t.Fatalf("transport took no time: %+v", lay)
	}
}
