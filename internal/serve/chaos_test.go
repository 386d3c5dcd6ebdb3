package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression for the drain race: /readyz must flip 200 → 503 exactly
// once per drain, no matter which drain entry point ran — and once it
// has said 503, no later poll may see 200. Run under -race; the poller
// races the drain sequence on purpose.
func TestReadyzDrainOrdering(t *testing.T) {
	s, ts := testServer(t, Config{})

	var mu sync.Mutex
	var codes []int
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				return
			}
			resp.Body.Close()
			mu.Lock()
			codes = append(codes, resp.StatusCode)
			mu.Unlock()
		}
	}()

	time.Sleep(5 * time.Millisecond) // let the poller observe some 200s
	s.NotReady()
	s.batcher.Close()
	// Post-drain polls: these MUST all be 503.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(codes) == 0 {
		t.Fatal("poller observed nothing")
	}
	sawUnavailable := false
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			if sawUnavailable {
				t.Fatalf("poll %d saw 200 after an earlier 503 — readiness flapped during drain: %v", i, codes)
			}
		case http.StatusServiceUnavailable:
			sawUnavailable = true
		default:
			t.Fatalf("poll %d: unexpected status %d", i, c)
		}
	}
	if !sawUnavailable {
		t.Fatal("poller never observed the drain 503")
	}
}

// The race the fix targets: a batcher drained directly — without the
// NotReady → Shutdown → Drain ceremony — must still flip /readyz to 503
// before Submit can refuse with ErrDraining. Before the fix /readyz
// consulted only the explicit ready flag and kept answering 200.
func TestReadyzReflectsBatcherDrain(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d before drain, want 200", resp.StatusCode)
	}

	s.batcher.Close() // direct drain, ready flag never touched
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d after direct batcher drain, want 503", resp.StatusCode)
	}
}

// chaosServer builds a chaos-armed test server and returns the Chaos
// handle alongside it.
func chaosServer(t *testing.T) (*Chaos, *Server, string) {
	t.Helper()
	c := &Chaos{}
	s, ts := testServer(t, Config{Chaos: c})
	return c, s, ts.URL
}

func postChaos(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/chaosz", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// error-every-N injects a 500 on exactly every Nth classify request.
func TestChaosErrorEvery(t *testing.T) {
	c, _, url := chaosServer(t)
	postChaos(t, url, `{"error_every":2}`)

	codes := make([]int, 0, 6)
	for i := 0; i < 6; i++ {
		resp, err := http.Post(url+"/v1/classify", "text/plain", strings.NewReader(validProgram))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	want := []int{200, 500, 200, 500, 200, 500}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	if c.injected.Load() != 3 {
		t.Errorf("injected = %d, want 3", c.injected.Load())
	}

	// Clear restores clean service.
	postChaos(t, url, `{"clear":true}`)
	resp, err := http.Post(url+"/v1/classify", "text/plain", strings.NewReader(validProgram))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after clear, want 200", resp.StatusCode)
	}
}

// The handler-level slow fault delays classify responses by at least
// the configured amount.
func TestChaosSlow(t *testing.T) {
	_, _, url := chaosServer(t)
	postChaos(t, url, `{"slow_ms":30}`)
	start := time.Now()
	resp, err := http.Post(url+"/v1/classify", "text/plain", strings.NewReader(validProgram))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("slow classify answered in %v, want >= 30ms", d)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// The serialized inference delay gates batch throughput: with one
// worker, k sequential classifies take at least k * delay.
func TestChaosInferDelaySerializes(t *testing.T) {
	c := &Chaos{}
	_, ts := testServer(t, Config{Workers: 1, Chaos: c})
	c.SetInferDelay(10 * time.Millisecond)

	const k = 4
	start := time.Now()
	for i := 0; i < k; i++ {
		resp, err := http.Post(ts.URL+"/v1/classify", "text/plain", strings.NewReader(validProgram))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if d := time.Since(start); d < k*10*time.Millisecond {
		t.Fatalf("%d classifies in %v, want >= %v (delay must serialize in the engine)",
			k, d, k*10*time.Millisecond)
	}
}

// A blackholed classify holds until the client gives up; /readyz and
// /chaosz stay reachable so the fault can be lifted.
func TestChaosBlackhole(t *testing.T) {
	_, _, url := chaosServer(t)
	postChaos(t, url, `{"blackhole":true}`)

	client := &http.Client{Timeout: 50 * time.Millisecond}
	_, err := client.Post(url+"/v1/classify", "text/plain", strings.NewReader(validProgram))
	if err == nil {
		t.Fatal("blackholed classify answered")
	}

	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d during blackhole, want 200 (control plane must stay up)", resp.StatusCode)
	}
	postChaos(t, url, `{"clear":true}`)
	resp2, err := http.Post(url+"/v1/classify", "text/plain", strings.NewReader(validProgram))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d after lifting blackhole, want 200", resp2.StatusCode)
	}
}

// GET /chaosz reports the live knob state; die invokes the installed
// Exit with the kill-style code after answering.
func TestChaosStateAndDie(t *testing.T) {
	c, _, url := chaosServer(t)
	var exitCode atomic.Int64
	exited := make(chan struct{})
	c.Exit = func(code int) {
		exitCode.Store(int64(code))
		close(exited)
	}
	postChaos(t, url, `{"slow_ms":5,"error_every":7}`)

	resp, err := http.Get(url + "/chaosz")
	if err != nil {
		t.Fatal(err)
	}
	var st chaosState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.SlowMs != 5 || st.ErrorEvery != 7 {
		t.Fatalf("state = %+v, want slow_ms 5 error_every 7", st)
	}

	if resp := postChaos(t, url, `{"die":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("die request status %d", resp.StatusCode)
	}
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		t.Fatal("die never invoked Exit")
	}
	if exitCode.Load() != DieExitCode {
		t.Fatalf("exit code %d, want %d", exitCode.Load(), DieExitCode)
	}
}

// A server built without Chaos pays nothing: /chaosz is not routed and
// the nil intercept is a no-op.
func TestChaosDisabledByDefault(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/chaosz", "application/json", strings.NewReader(`{"die":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/chaosz routed on a server without chaos")
	}
	var c *Chaos
	if c.intercept(nil, nil) {
		t.Fatal("nil chaos intercepted")
	}
}
