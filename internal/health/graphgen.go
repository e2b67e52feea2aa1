package health

import (
	"fmt"
	"math/rand"
	"time"

	"contexp/internal/topology"
	"contexp/internal/tracing"
)

// GraphGenConfig parameterizes the synthetic interaction graphs.
type GraphGenConfig struct {
	// Endpoints is the total endpoint count (e.g. 1,000 services with
	// 10 endpoints each = 10,000).
	Endpoints int
	// EndpointsPerService defaults to 10.
	EndpointsPerService int
	// Fanout is the mean number of downstream services per service;
	// low fanout yields deep graphs, high fanout broad ones (default 3).
	Fanout int
	// ChangeFraction of services receive a version update in the
	// experimental graph; a tenth as many services are added and edges
	// removed (default 0.1).
	ChangeFraction float64
	Seed           int64
}

// GenerateGraphPair builds a baseline interaction graph and an
// experimental variant with the configured change frequency.
func GenerateGraphPair(cfg GraphGenConfig) (*topology.Graph, *topology.Graph, error) {
	if cfg.Endpoints <= 0 {
		return nil, nil, fmt.Errorf("health: endpoints must be positive")
	}
	if cfg.EndpointsPerService <= 0 {
		cfg.EndpointsPerService = 10
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	if cfg.ChangeFraction <= 0 {
		cfg.ChangeFraction = 0.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nServices := cfg.Endpoints / cfg.EndpointsPerService
	if nServices < 2 {
		nServices = 2
	}

	base := topology.NewGraph(tracing.VariantBaseline)
	// Endpoint keys per service.
	endpoints := make([][]tracing.NodeKey, nServices)
	for s := 0; s < nServices; s++ {
		eps := make([]tracing.NodeKey, cfg.EndpointsPerService)
		for e := range eps {
			eps[e] = tracing.NodeKey{
				Service:  fmt.Sprintf("svc-%04d", s),
				Version:  "v1",
				Endpoint: fmt.Sprintf("ep-%02d", e),
			}
		}
		endpoints[s] = eps
	}
	addNode := func(g *topology.Graph, nk tracing.NodeKey, meanMs float64) {
		n := g.Nodes[nk]
		if n == nil {
			dur := time.Duration(meanMs * float64(time.Millisecond))
			g.Nodes[nk] = &topology.Node{
				Key: nk, Calls: 100, TotalDuration: 100 * dur,
			}
		}
	}
	addEdge := func(g *topology.Graph, from, to tracing.NodeKey) {
		ek := topology.EdgeKey{From: from, To: to}
		if g.Edges[ek] == nil {
			g.Edges[ek] = &topology.Edge{Key: ek, Calls: 100}
		}
	}

	// Tree-ish topology: service s calls up to Fanout services with
	// higher indices (guarantees acyclicity), one endpoint pair each.
	for s := 0; s < nServices; s++ {
		for _, ep := range endpoints[s] {
			addNode(base, ep, 5+rng.Float64()*20)
		}
		if s == 0 {
			base.Roots[endpoints[0][0]] = true
		}
		fan := 1 + rng.Intn(cfg.Fanout*2-1) // mean ≈ Fanout
		for f := 0; f < fan && s+1 < nServices; f++ {
			callee := s + 1 + rng.Intn(nServices-s-1)
			from := endpoints[s][rng.Intn(len(endpoints[s]))]
			to := endpoints[callee][rng.Intn(len(endpoints[callee]))]
			addEdge(base, from, to)
		}
	}

	// Experimental graph: copy, then mutate.
	exp := topology.NewGraph(tracing.VariantExperiment)
	for nk, n := range base.Nodes {
		cp := *n
		exp.Nodes[nk] = &cp
	}
	for ek, e := range base.Edges {
		cp := *e
		exp.Edges[ek] = &cp
	}
	for nk := range base.Roots {
		exp.Roots[nk] = true
	}

	bump := func(nk tracing.NodeKey) tracing.NodeKey {
		nk.Version = "v2"
		return nk
	}
	nChanged := int(float64(nServices) * cfg.ChangeFraction)
	changed := make(map[string]bool, nChanged)
	for _, s := range rng.Perm(nServices)[:nChanged] {
		changed[fmt.Sprintf("svc-%04d", s)] = true
	}
	// Version-bump changed services: rewrite their nodes and incident
	// edges.
	for nk, n := range base.Nodes {
		if !changed[nk.Service] {
			continue
		}
		delete(exp.Nodes, nk)
		cp := *n
		cp.Key = bump(nk)
		exp.Nodes[cp.Key] = &cp
	}
	for ek := range base.Edges {
		fromChanged := changed[ek.From.Service]
		toChanged := changed[ek.To.Service]
		if !fromChanged && !toChanged {
			continue
		}
		delete(exp.Edges, ek)
		nk := ek
		if fromChanged {
			nk.From = bump(nk.From)
		}
		if toChanged {
			nk.To = bump(nk.To)
		}
		exp.Edges[nk] = &topology.Edge{Key: nk, Calls: 100}
	}
	// A few brand-new services and removed edges.
	extra := nChanged/10 + 1
	for i := 0; i < extra; i++ {
		newSvc := tracing.NodeKey{
			Service:  fmt.Sprintf("svc-new-%02d", i),
			Version:  "v1",
			Endpoint: "ep-00",
		}
		addNode(exp, newSvc, 10)
		caller := endpoints[rng.Intn(nServices)][0]
		if changed[caller.Service] {
			caller = bump(caller)
		}
		addEdge(exp, caller, newSvc)
	}
	removed := 0
	for _, ek := range base.SortedEdges() {
		if removed >= extra {
			break
		}
		if changed[ek.From.Service] || changed[ek.To.Service] {
			continue
		}
		delete(exp.Edges, ek)
		removed++
	}
	return base, exp, nil
}
