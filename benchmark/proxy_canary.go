package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/router"
)

// proxy_canary: closed loop, two keep-alive clients. A GET with a
// 64-byte reply goes through router.Proxy for one service whose route
// has a staff -> v2 group rule and a sticky 90/10 v1/v2 split. Slices
// of direct-to-backend and proxied requests alternate, so machine drift
// hits both arms (every slice of the timed region is one such pair);
// proxied minus direct is the paper's Fig. 4.6 number. It exercises
// router only: no store, engine, journal or fleet.
const (
	proxyUsers      = 10000
	proxyStaffShare = 0.02
	proxyBodyBytes  = 64
	proxyClients    = 2
	proxyWarmup     = 1000 // requests per client and arm before timing
	proxySeqLen     = 1 << 16
	proxyService    = "checkout"
)

const (
	armDirect = iota
	armProxied
)

// armNames are the root span names of the two arms' requests.
var armNames = [2]string{"gen.direct", "gen.proxied"}

type proxyUser struct {
	id     string
	groups string // X-User-Groups value, "" for none
	expect string // version Table.Resolve assigns
}

type proxyWorld struct {
	tr      *tracer
	table   *router.Table
	proxy   *router.Proxy
	servers []*listener
	urls    map[string]string // "proxy", "v1", "v2" -> request URL
	users   []proxyUser
	seqs    [proxyClients][]int32
	next    [proxyClients]int
	clients [proxyClients]*http.Client
	staffOK bool

	arms     [2]timeline
	mallocs  [2]uint64 // heap objects allocated during each arm's slices
	bytes    [2]uint64
	seen     [2]map[string]int // replies by X-Backend-Version, per arm
	expected [2]map[string]int // the same requests by Resolve's verdict
	failures int
	problems []string
	mu       sync.Mutex // guards seen, expected, failures, problems
}

func backendHandler(version string) http.Handler {
	body := make([]byte, proxyBodyBytes)
	for i := range body {
		body[i] = 'a' + byte(i%26)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("X-Backend-Version", version)
		if v := r.Header.Get("X-Experiment-Version"); v != "" {
			h.Set("X-Experiment-Version", v)
		}
		h.Set("Content-Length", strconv.Itoa(proxyBodyBytes))
		_, _ = w.Write(body)
	})
}

func setupProxyCanary(cfg config, tr *tracer) (world, error) {
	w := &proxyWorld{tr: tr, table: router.NewTable(), urls: make(map[string]string)}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	traced := func(name, layer string, h http.Handler) http.Handler {
		if tr == nil {
			return h
		}
		return &spanHandler{next: h, tr: tr, name: name, layer: layer, parent: parentFromHeader}
	}
	if err := w.table.Set(router.Route{
		Service:    proxyService,
		Rules:      []router.Rule{{Name: "group-staff", Match: router.GroupMatcher{Group: "staff"}, Version: "v2"}},
		Backends:   []router.Backend{{Version: "v1", Weight: 0.9}, {Version: "v2", Weight: 0.1}},
		StickySalt: "proxy-canary",
	}); err != nil {
		return nil, err
	}
	w.proxy = router.NewProxy(proxyService, w.table)
	for _, v := range []string{"v1", "v2"} {
		l, err := listen(traced("backend.handler", "backend", backendHandler(v)))
		if err != nil {
			return nil, err
		}
		w.servers = append(w.servers, l)
		w.urls[v] = l.url + "/item"
		if err := w.proxy.RegisterUpstream(v, l.url); err != nil {
			return nil, err
		}
	}
	l, err := listen(traced("router.proxy", "router", w.proxy))
	if err != nil {
		return nil, err
	}
	w.servers = append(w.servers, l)
	w.urls["proxy"] = l.url + "/item"

	// Inputs: the user population, each user's expected version (Resolve
	// replayed on the static table), and each client's request sequence.
	rng := rand.New(rand.NewSource(cfg.seed))
	w.users = make([]proxyUser, proxyUsers)
	w.staffOK = true
	for i := range w.users {
		u := proxyUser{id: fmt.Sprintf("user-%08x", rng.Uint32())}
		req := &router.Request{UserID: u.id}
		if rng.Float64() < proxyStaffShare {
			u.groups = "staff"
			req.Groups = []expmodel.UserGroup{"staff"}
		}
		d, err := w.table.Resolve(proxyService, req)
		if err != nil {
			return nil, err
		}
		u.expect = d.Version
		if u.groups == "staff" && u.expect != "v2" {
			w.staffOK = false
		}
		w.users[i] = u
	}
	for c := range w.seqs {
		w.seqs[c] = make([]int32, proxySeqLen)
		for i := range w.seqs[c] {
			w.seqs[c][i] = int32(rng.Intn(proxyUsers))
		}
		w.clients[c] = newHTTPClient()
	}
	for arm := range w.seen {
		w.seen[arm] = make(map[string]int)
		w.expected[arm] = make(map[string]int)
	}

	// Warm-up by count: connections open, pools fill, code paths heat.
	for arm := armDirect; arm <= armProxied; arm++ {
		w.drive(arm, func(n int, _ time.Time) bool { return n < proxyWarmup })
	}
	if w.failures > 0 {
		return nil, fmt.Errorf("warm-up: %d requests failed: %v", w.failures, w.problems)
	}
	for arm := range w.seen {
		clear(w.seen[arm])
		clear(w.expected[arm])
	}
	ok = true
	return w, nil
}

// drive runs every client in a closed loop on one arm while more(n,
// start) holds, n being the client's own request count, and returns
// what it timed.
func (w *proxyWorld) drive(arm int, more func(n int, start time.Time) bool) sliceSamples {
	var wg sync.WaitGroup
	out := sliceSamples{traced: w.tr.enabled()}
	lats := make([][]float64, proxyClients)
	start := time.Now()
	for c := 0; c < proxyClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seen, expected := make(map[string]int), make(map[string]int)
			var problems []string
			failures := 0
			for n := 0; more(n, start); n++ {
				u := &w.users[w.seqs[c][w.next[c]%proxySeqLen]]
				w.next[c]++
				t0 := time.Now()
				got, err := w.request(c, arm, u)
				lats[c] = append(lats[c], micros(time.Since(t0)))
				expected[u.expect]++
				seen[got]++
				if err != nil {
					failures++
					if len(problems) < 3 {
						problems = append(problems, err.Error())
					}
				}
			}
			w.mu.Lock()
			w.failures += failures
			for v, n := range seen {
				w.seen[arm][v] += n
			}
			for v, n := range expected {
				w.expected[arm][v] += n
			}
			w.problems = append(w.problems, problems...)
			w.mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, l := range lats {
		out.latUS = append(out.latUS, l...)
	}
	return out
}

// request sends one GET for user u and checks the reply; it returns the
// backend version that answered.
func (w *proxyWorld) request(c, arm int, u *proxyUser) (string, error) {
	url := w.urls["proxy"]
	if arm == armDirect {
		url = w.urls[u.expect]
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("X-User-ID", u.id)
	if u.groups != "" {
		req.Header.Set("X-User-Groups", u.groups)
	}
	root := w.tr.begin(armNames[arm], "gen", uint64(c)<<48|uint64(w.next[c]), noSpan)
	if root >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(root)))
	}
	resp, err := w.clients[c].Do(req)
	if err != nil {
		w.tr.end(root)
		return "", err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	w.tr.end(root)
	got := resp.Header.Get("X-Backend-Version")
	switch {
	case err != nil:
		return got, err
	case resp.StatusCode != http.StatusOK:
		return got, fmt.Errorf("user %s: status %d", u.id, resp.StatusCode)
	case n != proxyBodyBytes:
		return got, fmt.Errorf("user %s: %d body bytes, want %d", u.id, n, proxyBodyBytes)
	case got != u.expect:
		return got, fmt.Errorf("user %s (groups %q): served by %s, Resolve says %s", u.id, u.groups, got, u.expect)
	case arm == armProxied && resp.Header.Get("X-Experiment-Version") != u.expect:
		return got, fmt.Errorf("user %s: X-Experiment-Version %q, want %s", u.id, resp.Header.Get("X-Experiment-Version"), u.expect)
	}
	return got, nil
}

func (w *proxyWorld) measure(d time.Duration) {
	var m0, m1 runtime.MemStats
	for arm := armDirect; arm <= armProxied; arm++ {
		runtime.ReadMemStats(&m0)
		s := w.drive(arm, func(_ int, start time.Time) bool { return time.Since(start) < d/2 })
		runtime.ReadMemStats(&m1)
		w.mallocs[arm] += m1.Mallocs - m0.Mallocs
		w.bytes[arm] += m1.TotalAlloc - m0.TotalAlloc
		w.arms[arm] = append(w.arms[arm], s)
	}
}

func (w *proxyWorld) report(r *result, st *spanStats, scales []float64) {
	direct, proxied := w.arms[armDirect], w.arms[armProxied]
	nDirect, nProxied := float64(len(direct.all())), float64(len(proxied.all()))
	r.attempted = int(nDirect + nProxied)
	r.failed = w.failures
	for _, p := range w.problems {
		r.problem("%s", p)
	}
	if !w.staffOK {
		r.problem("a staff user resolved to a version other than v2")
	}
	var shareErr int
	for arm := range w.seen {
		for _, v := range []string{"v1", "v2"} {
			if d := w.seen[arm][v] - w.expected[arm][v]; d != 0 {
				shareErr += max(d, -d)
			}
		}
	}
	if shareErr != 0 {
		r.problem("per-version reply counts differ from Resolve replayed on the same users by %d", shareErr)
	}
	r.setOperation(proxied, scales, 1)

	// Proxied minus direct, pair by pair, so drift within the run cancels.
	var added []float64
	for i := range proxied {
		added = append(added, proxied[i:i+1].dist(nil, sliceAny).P50-direct[i:i+1].dist(nil, sliceAny).P50)
	}
	all := sortedCopy(proxied.all())
	r.set("router.proxy_added_p50_us", median(added))
	r.set("router.direct_p50_us", direct.dist(nil, sliceAny).P50)
	r.set("router.proxy_p95_us", percentile(all, 0.95))
	r.set("router.proxy_p99_us", percentile(all, 0.99))
	r.set("router.proxy_allocs_per_req",
		ratio(float64(w.mallocs[armProxied]), nProxied)-ratio(float64(w.mallocs[armDirect]), nDirect))
	r.set("router.proxy_bytes_per_req",
		ratio(float64(w.bytes[armProxied]), nProxied)-ratio(float64(w.bytes[armDirect]), nDirect))
	r.set("router.mirror_drops", float64(w.proxy.MirrorDrops()))
	r.set("router.version_share_err", float64(shareErr))
	if st == nil {
		return
	}
	r.set("proc.trace_root_self_share", median(st.rootSelfShare[armNames[armProxied]]))
	r.set("router.proxy_hop_us", median(st.selfUS["router.proxy"]))
	r.set("router.resolve_ns", w.timeResolve())
}

// timeResolve is the mean cost of Table.Resolve over the workload's own
// users, in nanoseconds.
func (w *proxyWorld) timeResolve() float64 {
	reqs := make([]*router.Request, len(w.users))
	for i, u := range w.users {
		reqs[i] = &router.Request{UserID: u.id}
		if u.groups != "" {
			reqs[i].Groups = []expmodel.UserGroup{expmodel.UserGroup(u.groups)}
		}
	}
	const rounds = 20
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, req := range reqs {
			if _, err := w.table.Resolve(proxyService, req); err != nil {
				return 0
			}
		}
	}
	return float64(time.Since(start)) / float64(rounds*len(reqs))
}

func (w *proxyWorld) close() {
	for _, c := range w.clients {
		if c != nil {
			closeHTTPClient(c)
		}
	}
	for _, l := range w.servers {
		l.close()
	}
	if w.proxy != nil {
		w.proxy.Close()
	}
	// The proxy's reverse proxies pool their upstream connections here.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
