package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	hc    *http.Client
	batch int
	token string

	// mu guards the buffers Record* fill. It is never held across I/O,
	// so recording never waits for the network.
	mu      sync.Mutex
	samples []metrics.Sample
	spans   []tracing.Span

	// flushMu serializes flushes, so frames leave in the order their
	// telemetry was recorded. It guards the encoders and the buffers
	// being sent — the pair a flush swaps the filling ones for — and is
	// held across the sends: the encoders' frame buffers are reused by
	// the next Encode, so they must not escape the critical section. It
	// also guards the endpoints and their streams.
	flushMu            sync.Mutex
	metricsEP, spansEP endpoint
	menc               MetricsEncoder
	senc               SpansEncoder
	sendingSamples     []metrics.Sample
	sendingSpans       []tracing.Span

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
		metricsEP: endpoint{url: baseURL + "/v1/metrics"},
		spansEP:   endpoint{url: baseURL + "/v1/spans"},
		hc:        hc,
		batch:     batch,
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

// Flush ships everything buffered: one frame per telemetry kind, each
// returning once the server has applied it or refused it. Failed frames
// count toward Errors; the buffered telemetry is dropped either way
// (ingestion is lossy by design, like the collector's span cap).
func (c *Client) Flush() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	return c.flushLocked()
}

func (c *Client) flushLocked() error {
	// Take what is buffered by swapping each filling buffer with its
	// (already sent, now empty) twin: nothing is copied or allocated, and
	// recorders are held up for two slice assignments.
	c.mu.Lock()
	c.samples, c.sendingSamples = c.sendingSamples[:0], c.samples
	c.spans, c.sendingSpans = c.sendingSpans[:0], c.spans
	c.mu.Unlock()

	var firstErr error
	if len(c.sendingSamples) > 0 {
		firstErr = c.send(&c.metricsEP, c.menc.Encode(c.sendingSamples))
	}
	if len(c.sendingSpans) > 0 {
		if err := c.send(&c.spansEP, c.senc.Encode(c.sendingSpans)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// send ships one frame to ep: into its stream, or as a POST of its own
// to a server that cannot stream.
func (c *Client) send(ep *endpoint, frame []byte) error {
	c.flushes.Add(1)
	var err error
	if ep.oneShot {
		err = c.post(ep.url, frame)
	} else {
		err = c.stream(ep, frame)
	}
	if err != nil {
		c.errors.Add(1)
	}
	return err
}

// stream writes frame into ep's stream and waits for its ack. A stream
// that has ended, or has been open for streamMaxAge, is ended first and
// a new one opened.
func (c *Client) stream(ep *endpoint, frame []byte) error {
	if st := ep.st; st != nil && (st.ended() || time.Since(st.opened) > streamMaxAge) {
		st.end()
		ep.st = nil
	}
	fresh := ep.st == nil
	if fresh {
		st, err := c.open(ep.url)
		if err != nil {
			return err
		}
		ep.st = st
	}
	st := ep.st
	// A failed write means the reader has closed the pipe: the ack that
	// ended the stream, or the reason it ended, is waiting below.
	_, _ = st.pw.Write(frame)
	if fresh && !closedWithin(st.answered, streamWait) {
		// No answer to a new stream's first frame: the server, or a
		// proxy on the way, reads a body to its end before it answers,
		// as a server from before streams does. Ending the body gets the
		// frame answered, and every later frame is a request of its own.
		_ = st.pw.Close()
		ep.oneShot = true
	}
	a, ok := st.next()
	if !ok {
		ep.st = nil
		return fmt.Errorf("wire: stream to %s ended: %w", ep.url, st.err)
	}
	if ep.oneShot || a.plain || a.status != http.StatusAccepted {
		// The stream is over: its body has ended, the server answered
		// the open itself, with no stream behind it, or it refused the
		// frame, which ends a stream on both sides. A 202 to the open
		// says the server applied the frame but cannot stream: post one
		// frame per request to it.
		st.end()
		ep.st = nil
		ep.oneShot = ep.oneShot || a.plain && a.status == http.StatusAccepted
	}
	if a.status != http.StatusAccepted {
		return fmt.Errorf("wire: %s answered a frame with %d: %s", ep.url, a.status, a.msg)
	}
	return nil
}

// open starts a stream to url: a POST whose body is a pipe the flushes
// write frames into, and a goroutine that sends the request and reads
// the acks off its response.
func (c *Client) open(url string) (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := c.request(ctx, url, pr)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", AckContentType)
	st := &stream{pw: pw, cancel: cancel, acks: make(chan ack, 1), answered: make(chan struct{}),
		done: make(chan struct{}), opened: time.Now()}
	go st.read(c.hc, req)
	return st, nil
}

func (c *Client) request(ctx context.Context, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// post sends frame as a request of its own.
func (c *Client) post(url string, frame []byte) error {
	req, err := c.request(context.Background(), url, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("wire: %s returned %s", url, resp.Status)
	}
	return nil
}

// Close flushes any buffered telemetry, ends the client's streams and
// returns the flush error, if any. Short-lived emitters (agents draining
// on shutdown, one-shot tools) must Close so tail-of-life telemetry
// reaches the control plane instead of dying in the buffer. Ending a
// stream waits at most streamWait for its server before it cancels the
// request. Once Close returns, the client holds no goroutine and no
// request open; it is still usable, and the next flush opens a new
// stream.
func (c *Client) Close() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	err := c.flushLocked()
	for _, ep := range []*endpoint{&c.metricsEP, &c.spansEP} {
		if ep.st != nil {
			ep.st.end()
			ep.st = nil
		}
	}
	return err
}

// Flushes reports how many frames the client has sent.
func (c *Client) Flushes() uint64 { return c.flushes.Load() }

// Errors reports how many frames failed: a transport error, or a
// status other than 202 in the frame's ack or response.
func (c *Client) Errors() uint64 { return c.errors.Load() }

// --- streams ---

// streamMaxAge is how long a client writes frames into one stream
// before it ends it and opens the next. It sits well inside any
// http.Client.Timeout a caller would set, which would otherwise cut a
// stream (one request) in the middle of a frame.
const streamMaxAge = 10 * time.Second

// streamWait bounds two waits on a server: for the answer to a new
// stream's first frame, which a server that cannot read a body before
// it ends never gives, and for the end of a stream's response once its
// body has ended, which a wedged server never gives. The first falls
// back to one request per frame, the second cancels the request.
const streamWait = time.Second

// maxAckBody bounds an ack's body, and a one-frame response's body, as
// the client reads them.
const maxAckBody = 64 << 10

// endpoint is one of a Client's two telemetry URLs, with its open
// stream. flushMu guards it.
type endpoint struct {
	url     string
	st      *stream
	oneShot bool // the server cannot stream: one POST per frame
}

// stream is one open full-duplex POST. Flushes write frames into pw,
// one at a time; the read goroutine reads one ack per frame off the
// response and hands it over on acks.
type stream struct {
	pw       *io.PipeWriter
	cancel   context.CancelFunc // cancels the request
	acks     chan ack
	answered chan struct{} // closed once the server has answered the open, or could not be reached
	done     chan struct{} // closed once read has returned and pw is closed
	err      error         // why the stream ended; set before done closes
	opened   time.Time
}

// ack is the server's answer to one frame.
type ack struct {
	status int
	msg    string // the reply body, kept for a refused frame
	plain  bool   // a plain HTTP response to the open, not an ack stream
}

// read sends the stream's request and reads its acks until the
// response ends. Whatever ends it — the server ending the stream or
// closing the connection, a transport error — closes the pipe, so the
// transport stops waiting for frames and a stream never outlives its
// server.
func (st *stream) read(hc *http.Client, req *http.Request) {
	defer close(st.done)
	defer st.cancel()
	defer st.pw.Close()
	resp, err := hc.Do(req)
	close(st.answered)
	if err != nil {
		st.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != AckContentType {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxAckBody))
		st.acks <- ack{status: resp.StatusCode, msg: string(body), plain: true}
		st.err = errors.New("no ack stream")
		return
	}
	var hdr [AckHeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
			if err == io.EOF {
				err = errors.New("the server ended it")
			}
			st.err = err
			return
		}
		status, n := parseAck(hdr)
		if n > maxAckBody {
			st.err = fmt.Errorf("ack body of %d bytes", n)
			return
		}
		body = slices.Grow(body[:0], n)[:n]
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			st.err = err
			return
		}
		a := ack{status: status}
		if status != http.StatusAccepted {
			a.msg = string(body)
		}
		select {
		case st.acks <- a:
		default: // the last ack is still unread: this one answers no frame
			st.err = errors.New("an ack for no frame")
			return
		}
	}
}

// next waits for the ack to the frame last written. It reports false
// when the stream ended without one.
func (st *stream) next() (ack, bool) {
	select {
	case a := <-st.acks:
		return a, true
	case <-st.done:
		select {
		case a := <-st.acks:
			return a, true
		default:
			return ack{}, false
		}
	}
}

// ended reports whether the stream's read goroutine has returned.
func (st *stream) ended() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// end closes the stream's body, which a server reads as the end of the
// stream, and waits for the server to end the response, or cancels the
// request if it has not within streamWait: every frame written has been
// answered, so nothing is lost.
func (st *stream) end() {
	_ = st.pw.Close()
	if !closedWithin(st.done, streamWait) {
		st.cancel()
		<-st.done
	}
}

// closedWithin reports whether ch is closed within d.
func closedWithin(ch <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// --- acks ---

// AckContentType is the media type of an ack stream. A client that can
// read one sends it in Accept; a server that streams answers with it.
const AckContentType = "application/x-contexp-acks"

// AckHeaderSize is the fixed length of an ack's header.
const AckHeaderSize = 8

// AppendAck appends the ack to one frame of a stream: its status, its
// Retry-After in seconds (0 for none) and its body, the reply a
// one-frame POST would carry.
//
//	offset  size  field
//	0       2     HTTP status, uint16 little-endian
//	2       2     Retry-After seconds, uint16 little-endian
//	4       4     body length, uint32 little-endian
//	8       ...   body
func AppendAck(dst []byte, status, retryAfter int, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(min(max(retryAfter, 0), math.MaxUint16)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// parseAck reads an ack's header: its status and body length.
func parseAck(hdr [AckHeaderSize]byte) (status, bodyLen int) {
	return int(binary.LittleEndian.Uint16(hdr[0:])), int(binary.LittleEndian.Uint32(hdr[4:]))
}
