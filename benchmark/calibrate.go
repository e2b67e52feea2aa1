package main

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// The reference box's speed wanders: over minutes the same code runs up
// to 1.8 times slower and back, with no load of ours on it, so medians
// of unchanged code differed by a third between runs. Every slice of a
// timed region therefore has a short calibration before and after it:
// two clients time bare loopback HTTP round trips against a handler
// that does nothing. End-to-end timings are reported times refEchoUS over
// the echo round trip measured beside them: microseconds at the speed
// at which a bare round trip takes refEchoUS. Work the layers add shows
// unchanged; the machine's mood, which a round trip feels the same way
// the workloads do, mostly cancels. Per-layer metrics stay raw, next to
// gen.echo_p50_us and gen.speed_scale.
const (
	refEchoUS    = 40.0
	echoDuration = 200 * time.Millisecond // per calibration, capped at the slice's length
	echoClients  = 2
)

type calibrator struct {
	srv     *listener
	clients [echoClients]*http.Client
	errMu   sync.Mutex
	err     error // first failed round trip; a run with one is void
}

func newCalibrator() (*calibrator, error) {
	body := make([]byte, 64)
	srv, err := listen(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body)
	}))
	if err != nil {
		return nil, err
	}
	c := &calibrator{srv: srv}
	for i := range c.clients {
		c.clients[i] = newHTTPClient()
	}
	c.echoUS(echoDuration) // connections open, paths warm
	return c, nil
}

// echoUS is the median bare round trip over the next d, in
// microseconds.
func (c *calibrator) echoUS(d time.Duration) float64 {
	var wg sync.WaitGroup
	lats := make([][]float64, echoClients)
	start := time.Now()
	for i, hc := range c.clients {
		wg.Add(1)
		go func(i int, hc *http.Client) {
			defer wg.Done()
			for time.Since(start) < d {
				t0 := time.Now()
				resp, err := hc.Get(c.srv.url)
				if err != nil {
					c.errMu.Lock()
					if c.err == nil {
						c.err = err
					}
					c.errMu.Unlock()
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				lats[i] = append(lats[i], micros(time.Since(t0)))
			}
		}(i, hc)
	}
	wg.Wait()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	return median(all)
}

// scale is the factor that turns a timing taken beside an echo round
// trip of echoUS into one at the reference speed.
func scale(echoUS float64) float64 { return refEchoUS / echoUS }

func (c *calibrator) close() {
	for _, hc := range c.clients {
		closeHTTPClient(hc)
	}
	c.srv.close()
}
