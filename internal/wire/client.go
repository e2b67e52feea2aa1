package wire

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"contexp/internal/metrics"
	"contexp/internal/tracing"
)

// DefaultBatch is the flush threshold of a Client's telemetry buffers.
const DefaultBatch = 256

// Client buffers metric samples and spans and ships them to a contexpd
// as binary batch frames — the emitter side of the codec, used by the
// load generator, the simulated services, and the demo when they report
// telemetry over HTTP instead of in-process. Safe for concurrent use.
type Client struct {
	metricsURL, spansURL string
	hc                   *http.Client
	batch                int
	token                string

	// mu guards the buffers Record* fill. It is never held across I/O,
	// so recording never waits for the network.
	mu      sync.Mutex
	samples []metrics.Sample
	spans   []tracing.Span

	// flushMu serializes flushes, so frames leave in the order their
	// telemetry was recorded. It guards the encoders and the buffers
	// being sent — the pair a flush swaps the filling ones for — and is
	// held across the posts: the encoders' frame buffers are reused by
	// the next Encode, so they must not escape the critical section.
	flushMu        sync.Mutex
	menc           MetricsEncoder
	senc           SpansEncoder
	sendingSamples []metrics.Sample
	sendingSpans   []tracing.Span

	flushes atomic.Uint64
	errors  atomic.Uint64
}

// NewClient creates a Client posting to baseURL's /v1/metrics and
// /v1/spans. hc nil uses http.DefaultClient; batch <= 0 uses
// DefaultBatch.
func NewClient(baseURL string, hc *http.Client, batch int) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Client{
		metricsURL: baseURL + "/v1/metrics",
		spansURL:   baseURL + "/v1/spans",
		hc:         hc,
		batch:      batch,
	}
}

// SetToken makes every post carry the bearer token — required against
// a control plane running with --auth-tokens, whose ingestion endpoints
// stamp each batch into the authenticated tenant's namespace. Call
// before the first Record; not synchronized with in-flight flushes.
func (c *Client) SetToken(token string) { c.token = token }

// RecordMetric buffers one sample, flushing when the batch fills.
func (c *Client) RecordMetric(s metrics.Sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	flush := len(c.samples) >= c.batch
	c.mu.Unlock()
	if flush {
		_ = c.Flush()
	}
}

// RecordBatch buffers samples, flushing when the batch fills. It
// satisfies the same shape as metrics.Store.RecordBatch so simulators
// can target either sink.
func (c *Client) RecordBatch(samples []metrics.Sample) {
	c.mu.Lock()
	c.samples = append(c.samples, samples...)
	flush := len(c.samples) >= c.batch
	c.mu.Unlock()
	if flush {
		_ = c.Flush()
	}
}

// RecordSpan buffers one span, flushing when the batch fills.
func (c *Client) RecordSpan(s tracing.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	flush := len(c.spans) >= c.batch
	c.mu.Unlock()
	if flush {
		_ = c.Flush()
	}
}

// Flush ships everything buffered. Failed posts count toward Errors;
// the buffered telemetry is dropped either way (ingestion is lossy by
// design, like the collector's span cap).
func (c *Client) Flush() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	// Take what is buffered by swapping each filling buffer with its
	// (already sent, now empty) twin: nothing is copied or allocated, and
	// recorders are held up for two slice assignments.
	c.mu.Lock()
	c.samples, c.sendingSamples = c.sendingSamples[:0], c.samples
	c.spans, c.sendingSpans = c.sendingSpans[:0], c.spans
	c.mu.Unlock()

	var firstErr error
	if len(c.sendingSamples) > 0 {
		firstErr = c.post(c.metricsURL, c.menc.Encode(c.sendingSamples))
	}
	if len(c.sendingSpans) > 0 {
		if err := c.post(c.spansURL, c.senc.Encode(c.sendingSpans)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (c *Client) post(url string, frame []byte) error {
	c.flushes.Add(1)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		c.errors.Add(1)
		return err
	}
	req.Header.Set("Content-Type", ContentType)
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.errors.Add(1)
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		c.errors.Add(1)
		return fmt.Errorf("wire: %s returned %s", url, resp.Status)
	}
	return nil
}

// Close flushes any buffered telemetry and returns the flush error, if
// any. Short-lived emitters (agents draining on shutdown, one-shot
// tools) must Close so tail-of-life telemetry reaches the control plane
// instead of dying in the buffer; the Client is still usable afterwards
// (Close is a flush barrier, not a teardown — there are no goroutines
// or connections to release).
func (c *Client) Close() error { return c.Flush() }

// Flushes reports how many frames the client has posted.
func (c *Client) Flushes() uint64 { return c.flushes.Load() }

// Errors reports how many posts failed (transport or non-202 status).
func (c *Client) Errors() uint64 { return c.errors.Load() }
