package router

import (
	"bytes"
	"context"
	"crypto/x509"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/expmodel"
)

// Tracing headers the data plane stamps on requests so backends can
// emit spans that assemble into end-to-end traces:
//
//	X-Trace-ID     hex trace identifier; the entry proxy mints one when
//	               the request arrives without it
//	X-Parent-Span  hex span identifier of the calling backend's span
//	X-Experiment-Version  the version the routing table resolved
//
// The constants spell the names the way net/http canonicalises them, so
// Header.Get and Set find them without building the canonical form.
const (
	HeaderTraceID    = "X-Trace-Id"
	HeaderParentSpan = "X-Parent-Span"
	headerUserID     = "X-User-Id"
	headerUserGroups = "X-User-Groups"
)

const (
	// mirrorBodyCap is the largest request body a dark launch copies;
	// a longer one reaches the primary only.
	mirrorBodyCap = 1 << 20
	// mirrorTimeout bounds one mirror request, reply included, so a
	// hung candidate costs a worker this long and no longer.
	mirrorTimeout = 10 * time.Second
	mirrorWorkers = 8
)

// Proxy is the HTTP face of a routing Table: the lightweight
// per-service proxy the Bifrost architecture places in front of service
// instances (Section 4.4, and the same pattern Istio later adopted).
// It resolves the experiment version from the routing table, forwards
// the request to the registered upstream for (service, version), and
// fires mirror copies for dark launches.
//
// Request attributes are read from headers:
//
//	X-User-ID      sticky routing identity
//	X-User-Groups  comma-separated group memberships
//
// The forwarding contract (forward.go; pinned byte for byte by
// testdata/forward_parent.golden):
//
//   - The upstream URL is the registered base URL with the request path
//     joined behind its path and the request query behind its query.
//     The inbound Host is sent unchanged.
//   - Hop-by-hop headers (Connection and every header it lists,
//     Proxy-Connection, Keep-Alive, Proxy-Authenticate,
//     Proxy-Authorization, Te, Trailer, Transfer-Encoding, Upgrade) are
//     removed in both directions. "Te: trailers" is passed on.
//   - The client's address is appended to X-Forwarded-For; a middleware
//     that sets the header to nil opts out. A request without a
//     User-Agent goes out without one.
//   - A request with Content-Length 0 goes out without a body.
//   - The upstream's status, headers (added to any a middleware set) and
//     body are relayed. A reply of unknown length or of type
//     text/event-stream is flushed at once and after every write; any
//     other reply is left to the server's buffering.
//   - Trailers are announced and relayed.
//   - An Upgrade the upstream accepts with 101 takes over both
//     connections and copies bytes each way until one side closes.
//   - The upstream call runs under the request's context: a client that
//     goes away aborts it.
//   - An upstream that cannot be reached, or that answers an Upgrade
//     with another protocol, is a bare 502. A reply that fails mid-body
//     aborts the client connection (http.ErrAbortHandler).
//   - Compression is between client and upstream: the proxy neither
//     asks for it nor undoes it. 1xx interim replies are not relayed.
//
// Every upstream call, primary or mirrored, goes through the Proxy's
// own client (upstream.go), on the goroutine that makes it. It speaks
// HTTP/1.1 only, to http and https upstreams alike (no HTTP/2), verifies
// https upstreams against the system's roots, and does not consult the
// environment's HTTP_PROXY. It keeps at most 64 idle keep-alive
// connections per upstream address, with no idle timeout: an idle
// connection is checked when next taken and dropped if the upstream has
// closed it or sent anything. A connection is kept only when neither
// side said "Connection: close". A request that fails on a reused
// connection is sent once more on a fresh one if it is replayable: GET,
// HEAD, OPTIONS or TRACE, or carrying an Idempotency-Key (or
// X-Idempotency-Key) header, and without a body unless the body can be
// had again. A reply the upstream sends before it has read the whole
// request is relayed.
type Proxy struct {
	service string
	table   *Table

	mu      sync.RWMutex
	targets map[string]upstream  // version -> where its requests go
	pools   map[string]*connPool // scheme://host of an upstream URL -> its connections
	// roots verifies https upstreams; nil means the system's roots.
	roots *x509.CertPool

	// mirror queues dark-launch copies for the mirror workers. It is
	// never closed: ServeHTTP may still be sending when Close runs.
	mirror        chan mirrorJob
	mirrorTimeout time.Duration
	wg            sync.WaitGroup
	closed        chan struct{}
	closeOnce     sync.Once

	// mirrorDrops counts mirror jobs discarded: dark-launch coverage
	// silently lost unless surfaced.
	mirrorDrops atomic.Uint64
}

// upstream is a registered version's base URL and the pool its
// requests draw connections from.
type upstream struct {
	base *url.URL
	pool *connPool
}

// mirrorJob is one dark-launch copy: the inbound request as it arrived
// (own header, no context, no body) and the body it carried.
type mirrorJob struct {
	version string
	req     *http.Request
	body    []byte
}

var _ http.Handler = (*Proxy)(nil)

// NewProxy creates a proxy for one service backed by table.
func NewProxy(service string, table *Table) *Proxy {
	return newProxy(service, table, mirrorTimeout)
}

func newProxy(service string, table *Table, mirrorTimeout time.Duration) *Proxy {
	p := &Proxy{
		service: service,
		table:   table,
		targets: make(map[string]upstream),
		pools:   make(map[string]*connPool),
		// Room for a burst of mirrored requests while every worker is
		// busy; past it jobs are dropped and counted.
		mirror:        make(chan mirrorJob, 256),
		mirrorTimeout: mirrorTimeout,
		closed:        make(chan struct{}),
	}
	for i := 0; i < mirrorWorkers; i++ {
		p.wg.Add(1)
		go p.mirrorWorker()
	}
	return p
}

// Close stops the mirror workers and waits for the requests they have
// in flight (each bounded by the mirror timeout); queued mirror jobs
// are abandoned. It closes the idle upstream connections. Requests
// still inside ServeHTTP finish normally, and close their connections
// when they end. Close may be called again, from any goroutine: a later
// call returns once the first has finished.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.wg.Wait()
		p.mu.RLock()
		defer p.mu.RUnlock()
		for _, cp := range p.pools {
			cp.close()
		}
	})
}

// MirrorDrops reports how many dark-launch mirror jobs were discarded:
// the mirror queue was full, the request body was longer than 1 MiB or
// of unknown length, or the proxy was closed. A growing value means the
// candidate sees less traffic than the baseline, biasing dark-launch
// sample counts.
func (p *Proxy) MirrorDrops() uint64 { return p.mirrorDrops.Load() }

// RegisterUpstream maps a version to its backend base URL, which must
// be http or https.
func (p *Proxy) RegisterUpstream(version, baseURL string) error {
	u, err := url.Parse(baseURL)
	if err != nil {
		return fmt.Errorf("router: bad upstream url %q: %w", baseURL, err)
	}
	key := u.Scheme + "://" + u.Host
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := p.pools[key]
	if cp == nil {
		if cp, err = newConnPool(u, p.roots); err != nil {
			return err
		}
		p.pools[key] = cp
	}
	p.targets[version] = upstream{base: u, pool: cp}
	return nil
}

func (p *Proxy) target(version string) upstream {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.targets[version]
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	decision, err := p.table.Resolve(p.service, requestFromHTTP(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	target := p.target(decision.Version)
	if target.pool == nil {
		http.Error(w, fmt.Sprintf("router: no upstream for %s@%s", p.service, decision.Version),
			http.StatusBadGateway)
		return
	}
	// Fire mirrors before forwarding so the primary's response time does
	// not include mirror dispatch beyond the channel send, and so they
	// copy the header before forward rewrites it in place.
	if len(decision.Mirrors) > 0 {
		p.enqueueMirrors(r, decision.Mirrors)
	}
	// Mint a trace identity at the edge: the first proxy a user request
	// hits assigns the trace ID that every downstream span joins.
	if r.Header.Get(HeaderTraceID) == "" {
		r.Header.Set(HeaderTraceID, strconv.FormatUint(rand.Uint64()|1, 16))
	}
	r.Header.Set("X-Experiment-Version", decision.Version)
	p.forward(w, r, target)
}

// enqueueMirrors queues one copy of r per mirror version. The primary
// path never blocks on it and always keeps its whole body: a mirror
// that cannot be queued or cannot carry the body is dropped and
// counted, so /healthz can reveal how much dark-launch coverage was
// lost.
func (p *Proxy) enqueueMirrors(r *http.Request, mirrors []string) {
	body, ok := mirrorBody(r)
	select {
	case <-p.closed:
		ok = false
	default:
	}
	if !ok {
		p.mirrorDrops.Add(uint64(len(mirrors)))
		return
	}
	req := r.WithContext(context.Background()) // outlives the primary
	req.Header = r.Header.Clone()
	req.Header.Set("X-Dark-Launch", "true")
	req.Body = nil
	for _, m := range mirrors {
		select {
		case p.mirror <- mirrorJob{version: m, req: req, body: body}:
		default:
			p.mirrorDrops.Add(1)
		}
	}
}

// mirrorBody reads r's body for the mirrors and puts it back for the
// primary. It reports false, with the body untouched or restored, when
// the length is unknown or over mirrorBodyCap, or when the read fails.
func mirrorBody(r *http.Request) ([]byte, bool) {
	if r.Body == nil || r.ContentLength == 0 {
		return nil, true
	}
	if r.ContentLength < 0 || r.ContentLength > mirrorBodyCap {
		return nil, false
	}
	body := make([]byte, r.ContentLength)
	n, err := io.ReadFull(r.Body, body)
	// The primary reads what was buffered, then whatever is left.
	r.Body = struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(body[:n]), r.Body), r.Body}
	return body, err == nil
}

func (p *Proxy) mirrorWorker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.closed:
			return
		case job := <-p.mirror:
			p.sendMirror(job)
		}
	}
}

func (p *Proxy) sendMirror(job mirrorJob) {
	target := p.target(job.version)
	if target.pool == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.mirrorTimeout)
	defer cancel()
	out := outbound(job.req.WithContext(ctx), target.base)
	if job.body != nil {
		out.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(job.body)), nil
		}
		out.Body, _ = out.GetBody()
	}
	resp, err := target.pool.roundTrip(out)
	if err != nil {
		return
	}
	// Responses of dark launches are discarded.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// requestFromHTTP extracts routing attributes from HTTP headers.
func requestFromHTTP(r *http.Request) *Request {
	req := &Request{UserID: r.Header.Get(headerUserID), Header: r.Header}
	for groups := r.Header.Get(headerUserGroups); groups != ""; {
		var g string
		g, groups, _ = strings.Cut(groups, ",")
		if g = strings.TrimSpace(g); g != "" {
			req.Groups = append(req.Groups, expmodel.UserGroup(g))
		}
	}
	return req
}
