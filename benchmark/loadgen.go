package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// reply is one request as the client saw it.
type reply struct {
	body    int           // index into the bodies slice
	latency time.Duration // send to last byte of the response
	end     time.Duration // completion, measured from the start of the phase
	status  int           // 0 on a transport error
	resp    []byte
}

// loadPlan is one phase of closed-loop traffic: each client sends its
// next request only when the previous one has been answered, because the
// callers of this service are scanners and gateways that block on the
// verdict. Each client keeps one connection alive.
type loadPlan struct {
	url     string
	bodies  []body
	clients int
	// cycle wraps around the bodies (the warm working set); without it a
	// phase ends when the bodies run out (distinct cold bodies).
	cycle bool
	// duration ends the phase: no request is sent after it. Zero means
	// until the bodies run out.
	duration time.Duration
}

// runLoad executes the plan and returns every reply, ordered by client
// and then by send order, plus the wall time of the phase.
func runLoad(ctx context.Context, p loadPlan) ([]reply, time.Duration) {
	var next atomic.Int64
	perClient := make([][]reply, p.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			out := make([]reply, 0, 4096)
			for ctx.Err() == nil {
				if p.duration > 0 && time.Since(start) >= p.duration {
					break
				}
				n := int(next.Add(1) - 1)
				if n >= len(p.bodies) {
					if !p.cycle {
						break
					}
					n %= len(p.bodies)
				}
				out = append(out, send(client, p.url, n, p.bodies[n].text, start))
			}
			perClient[c] = out
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []reply
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all, wall
}

func send(client *http.Client, url string, n int, text string, phaseStart time.Time) reply {
	r := reply{body: n}
	sent := time.Now()
	resp, err := client.Post(url, "text/plain", strings.NewReader(text))
	if err == nil {
		r.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			r.status = resp.StatusCode
		}
	}
	done := time.Now()
	r.latency = done.Sub(sent)
	r.end = done.Sub(phaseStart)
	return r
}
