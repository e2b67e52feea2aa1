package bifrost

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"contexp/internal/expmodel"
	"contexp/internal/health"
	"contexp/internal/metrics"
)

// This file implements the experimentation-as-code DSL (Section 4.4):
// strategies are written as text, shared, reviewed, and versioned like
// any other code. Example:
//
//	strategy "recommendation-rollout" {
//	    service   = "recommendation"
//	    baseline  = "v1"
//	    candidate = "v2"
//
//	    phase "canary" {
//	        practice    = canary
//	        traffic     = 5%
//	        duration    = 10m
//	        min-samples = 200
//	        check "latency" {
//	            metric    = response_time
//	            aggregate = p95
//	            max       = 250
//	            interval  = 10s
//	        }
//	        check "regression" {
//	            metric    = response_time
//	            aggregate = mean
//	            scope     = relative
//	            max       = 1.25
//	            interval  = 15s
//	        }
//	        check "structure" {
//	            kind       = topology
//	            heuristic  = "subtree-weighted"
//	            allow      = updated-callee-version, updated-caller-version
//	            min-traces = 25
//	            interval   = 30s
//	        }
//	        on success      -> phase "rollout"
//	        on failure      -> rollback
//	        on inconclusive -> retry
//	        max-retries = 2
//	    }
//
//	    phase "rollout" {
//	        practice      = gradual-rollout
//	        steps         = 25%, 50%, 75%, 100%
//	        step-duration = 5m
//	        check "latency" {
//	            metric    = response_time
//	            aggregate = p95
//	            max       = 250
//	        }
//	        on success -> promote
//	        on failure -> rollback
//	    }
//	}
//
// Comments start with '#' or '//' and run to end of line.

// ParseStrategy parses DSL source into a validated Strategy.
func ParseStrategy(src string) (*Strategy, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	s, err := p.parseStrategy()
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- lexer ---

type tokenKind int

const (
	tokIdent tokenKind = iota + 1
	tokString
	tokNumber // numeric literal with optional unit suffix ("5", "2.5", "10m", "50%")
	tokLBrace
	tokRBrace
	tokAssign
	tokArrow
	tokComma
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", line})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", line})
			i++
		case c == '=':
			toks = append(toks, token{tokAssign, "=", line})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", line})
			i++
		case c == '-' && i+1 < n && src[i+1] == '>':
			toks = append(toks, token{tokArrow, "->", line})
			i += 2
		case c == '"':
			// A string is a Go string literal: exactly what strconv.Quote
			// (and so WriteDSL) writes, escapes included.
			q, err := strconv.QuotedPrefix(src[i:])
			if err != nil {
				return nil, fmt.Errorf("bifrost: line %d: unterminated string or bad escape", line)
			}
			text, _ := strconv.Unquote(q) // cannot fail: QuotedPrefix accepted q
			toks = append(toks, token{tokString, text, line})
			i += len(q)
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i
			for j < n && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			// Attach unit suffixes, including composite durations like
			// "10m30s" or "1h0m0s" where digits follow unit letters.
			for j < n && (src[j] == '%' || isUnitLetter(rune(src[j]))) {
				j++
				for j < n && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
					j++
				}
			}
			toks = append(toks, token{tokNumber, src[i:j], line})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("bifrost: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '/'
}

func isUnitLetter(r rune) bool {
	switch r {
	case 'n', 's', 'm', 'h', 'u', 'µ':
		return true
	default:
		return false
	}
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("bifrost: line %d: expected %s, got %s", t.line, what, t)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return fmt.Errorf("bifrost: line %d: expected %q, got %s", t.line, kw, t)
	}
	return nil
}

func (p *parser) parseStrategy() (*Strategy, error) {
	if err := p.expectKeyword("strategy"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString, "strategy name string")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	s := &Strategy{Name: name.text}
	for {
		t := p.peek()
		switch {
		case t.kind == tokRBrace:
			p.next()
			if tail := p.peek(); tail.kind != tokEOF {
				return nil, fmt.Errorf("bifrost: line %d: unexpected %s after strategy", tail.line, tail)
			}
			return s, nil
		case t.kind == tokEOF:
			return nil, fmt.Errorf("bifrost: line %d: unexpected end of input in strategy", t.line)
		case t.kind == tokIdent && t.text == "phase":
			phase, err := p.parsePhase()
			if err != nil {
				return nil, err
			}
			s.Phases = append(s.Phases, *phase)
		case t.kind == tokIdent:
			key, val, err := p.parseAssignment()
			if err != nil {
				return nil, err
			}
			switch key {
			case "service":
				s.Service = val.text
			case "baseline":
				s.Baseline = val.text
			case "candidate":
				s.Candidate = val.text
			default:
				return nil, fmt.Errorf("bifrost: line %d: unknown strategy attribute %q", t.line, key)
			}
		default:
			return nil, fmt.Errorf("bifrost: line %d: unexpected %s in strategy", t.line, t)
		}
	}
}

// parseAssignment parses `key = value` and returns the key and the raw
// value token (string, ident, or number).
func (p *parser) parseAssignment() (string, token, error) {
	key := p.next() // known tokIdent
	if _, err := p.expect(tokAssign, "="); err != nil {
		return "", token{}, err
	}
	val := p.next()
	if val.kind != tokString && val.kind != tokIdent && val.kind != tokNumber {
		return "", token{}, fmt.Errorf("bifrost: line %d: expected value after %s =, got %s", val.line, key.text, val)
	}
	return key.text, val, nil
}

func (p *parser) parsePhase() (*Phase, error) {
	p.next() // "phase"
	name, err := p.expect(tokString, "phase name string")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	phase := &Phase{Name: name.text}
	for {
		t := p.peek()
		switch {
		case t.kind == tokRBrace:
			p.next()
			return phase, nil
		case t.kind == tokEOF:
			return nil, fmt.Errorf("bifrost: line %d: unexpected end of input in phase %q", t.line, phase.Name)
		case t.kind == tokIdent && t.text == "check":
			check, err := p.parseCheck()
			if err != nil {
				return nil, err
			}
			phase.Checks = append(phase.Checks, *check)
		case t.kind == tokIdent && t.text == "on":
			if err := p.parseChain(phase); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && t.text == "steps":
			if err := p.parseSteps(phase); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && t.text == "groups":
			if err := p.parseGroups(phase); err != nil {
				return nil, err
			}
		case t.kind == tokIdent:
			key, val, err := p.parseAssignment()
			if err != nil {
				return nil, err
			}
			if err := applyPhaseAttr(phase, key, val); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("bifrost: line %d: unexpected %s in phase %q", t.line, t, phase.Name)
		}
	}
}

func applyPhaseAttr(phase *Phase, key string, val token) error {
	switch key {
	case "practice":
		pr, err := expmodel.ParsePractice(val.text)
		if err != nil {
			return fmt.Errorf("bifrost: line %d: %w", val.line, err)
		}
		phase.Practice = pr
		if pr == expmodel.PracticeDarkLaunch {
			phase.Traffic.Mirror = true
		}
	case "traffic":
		w, err := parsePercent(val)
		if err != nil {
			return err
		}
		phase.Traffic.CandidateWeight = w
	case "duration":
		d, err := parseDurationTok(val)
		if err != nil {
			return err
		}
		phase.Duration = d
	case "step-duration":
		d, err := parseDurationTok(val)
		if err != nil {
			return err
		}
		phase.Traffic.StepDuration = d
	case "min-samples":
		n, err := parseIntTok(val)
		if err != nil {
			return err
		}
		phase.MinSamples = n
	case "max-retries":
		n, err := parseIntTok(val)
		if err != nil {
			return err
		}
		phase.MaxRetries = n
	default:
		return fmt.Errorf("bifrost: line %d: unknown phase attribute %q", val.line, key)
	}
	return nil
}

func (p *parser) parseCheck() (*Check, error) {
	p.next() // "check"
	name, err := p.expect(tokString, "check name string")
	if err != nil {
		return nil, err
	}
	open, err := p.expect(tokLBrace, "{")
	if err != nil {
		return nil, err
	}
	c := &Check{Name: name.text, Scope: ScopeCandidate}
	// seen tracks which attributes appeared, for duplicate detection on
	// the topology attributes and for kind/attribute consistency checks
	// once the whole block is parsed (attribute order is free, so `kind`
	// may come last).
	seen := make(map[string]bool)
	for {
		t := p.peek()
		switch {
		case t.kind == tokRBrace:
			p.next()
			if err := finishCheck(c, seen, open.line); err != nil {
				return nil, err
			}
			return c, nil
		case t.kind == tokEOF:
			return nil, fmt.Errorf("bifrost: line %d: unexpected end of input in check %q", t.line, c.Name)
		case t.kind == tokIdent && t.text == "allow":
			if seen["allow"] {
				return nil, fmt.Errorf("bifrost: line %d: duplicate attribute %q in check %q", t.line, "allow", c.Name)
			}
			seen["allow"] = true
			if err := p.parseAllow(c); err != nil {
				return nil, err
			}
		case t.kind == tokIdent:
			key, val, err := p.parseAssignment()
			if err != nil {
				return nil, err
			}
			if topologyCheckAttr(key) && seen[key] {
				return nil, fmt.Errorf("bifrost: line %d: duplicate attribute %q in check %q", val.line, key, c.Name)
			}
			seen[key] = true
			if err := applyCheckAttr(c, key, val); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("bifrost: line %d: unexpected %s in check %q", t.line, t, c.Name)
		}
	}
}

// topologyCheckAttr reports whether an attribute belongs to the
// topology check vocabulary (these are duplicate-checked strictly).
func topologyCheckAttr(key string) bool {
	switch key {
	case "kind", "heuristic", "max-ranked-changes", "min-traces":
		return true
	default:
		return false
	}
}

// finishCheck enforces kind/attribute consistency after a check block
// is fully parsed: topology checks reject the metric vocabulary and
// vice versa.
func finishCheck(c *Check, seen map[string]bool, line int) error {
	if c.Kind == CheckTopology {
		for _, key := range []string{"metric", "aggregate", "aggregation", "scope", "max", "min", "window"} {
			if seen[key] {
				return fmt.Errorf("bifrost: line %d: attribute %q is not valid on topology check %q", line, key, c.Name)
			}
		}
		return nil
	}
	for _, key := range []string{"heuristic", "max-ranked-changes", "min-traces", "allow"} {
		if seen[key] {
			return fmt.Errorf("bifrost: line %d: attribute %q on check %q requires kind = topology", line, key, c.Name)
		}
	}
	return nil
}

// parseAllow parses `allow = class, class, ...` on a topology check.
func (p *parser) parseAllow(c *Check) error {
	p.next() // "allow"
	if _, err := p.expect(tokAssign, "="); err != nil {
		return err
	}
	for {
		t := p.next()
		if t.kind != tokIdent && t.kind != tokString {
			return fmt.Errorf("bifrost: line %d: expected change class, got %s", t.line, t)
		}
		if _, err := health.ParseChangeType(t.text); err != nil {
			return fmt.Errorf("bifrost: line %d: %w", t.line, err)
		}
		c.Allow = append(c.Allow, t.text)
		if p.peek().kind != tokComma {
			return nil
		}
		p.next()
	}
}

func applyCheckAttr(c *Check, key string, val token) error {
	switch key {
	case "kind":
		switch strings.ToLower(val.text) {
		case "metric":
			c.Kind = CheckMetric
		case "topology":
			c.Kind = CheckTopology
		default:
			return fmt.Errorf("bifrost: line %d: unknown check kind %q (metric or topology)", val.line, val.text)
		}
	case "heuristic":
		if _, err := health.HeuristicByName(val.text); err != nil {
			return fmt.Errorf("bifrost: line %d: %w", val.line, err)
		}
		c.Heuristic = val.text
	case "max-ranked-changes":
		n, err := parseIntTok(val)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("bifrost: line %d: max-ranked-changes must be >= 0", val.line)
		}
		c.MaxChanges = n
	case "min-traces":
		n, err := parseIntTok(val)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("bifrost: line %d: min-traces must be >= 0", val.line)
		}
		c.MinTraces = n
	case "metric":
		c.Metric = val.text
	case "aggregate", "aggregation":
		agg, err := metrics.ParseAggregation(val.text)
		if err != nil {
			return fmt.Errorf("bifrost: line %d: %w", val.line, err)
		}
		c.Aggregation = agg
	case "max":
		v, err := parseFloatTok(val)
		if err != nil {
			return err
		}
		c.Threshold = v
		c.Upper = true
	case "min":
		v, err := parseFloatTok(val)
		if err != nil {
			return err
		}
		c.Threshold = v
		c.Upper = false
	case "window":
		d, err := parseDurationTok(val)
		if err != nil {
			return err
		}
		c.Window = d
	case "interval":
		d, err := parseDurationTok(val)
		if err != nil {
			return err
		}
		c.Interval = d
	case "failures":
		n, err := parseIntTok(val)
		if err != nil {
			return err
		}
		c.FailuresToTrip = n
	case "scope":
		switch strings.ToLower(val.text) {
		case "candidate":
			c.Scope = ScopeCandidate
		case "baseline":
			c.Scope = ScopeBaseline
		case "relative":
			c.Scope = ScopeRelative
		default:
			return fmt.Errorf("bifrost: line %d: unknown check scope %q", val.line, val.text)
		}
	default:
		return fmt.Errorf("bifrost: line %d: unknown check attribute %q", val.line, key)
	}
	return nil
}

// parseChain parses `on <outcome> -> <action>`.
func (p *parser) parseChain(phase *Phase) error {
	p.next() // "on"
	outcome, err := p.expect(tokIdent, "outcome (success/failure/inconclusive)")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokArrow, "->"); err != nil {
		return err
	}
	action, err := p.expect(tokIdent, "action")
	if err != nil {
		return err
	}
	var tr Transition
	switch action.text {
	case "rollback":
		tr = Transition{Kind: TransitionRollback}
	case "promote":
		tr = Transition{Kind: TransitionPromote}
	case "retry":
		tr = Transition{Kind: TransitionRetry}
	case "next":
		tr = Transition{Kind: TransitionNext}
	case "abort":
		tr = Transition{Kind: TransitionAbort}
	case "phase":
		target, err := p.expect(tokString, "phase name string")
		if err != nil {
			return err
		}
		tr = Transition{Kind: TransitionGoto, Target: target.text}
	default:
		return fmt.Errorf("bifrost: line %d: unknown action %q", action.line, action.text)
	}
	switch outcome.text {
	case "success":
		phase.OnSuccess = tr
	case "failure":
		phase.OnFailure = tr
	case "inconclusive":
		phase.OnInconclusive = tr
	default:
		return fmt.Errorf("bifrost: line %d: unknown outcome %q", outcome.line, outcome.text)
	}
	return nil
}

// parseSteps parses `steps = 25%, 50%, 100%`.
func (p *parser) parseSteps(phase *Phase) error {
	p.next() // "steps"
	if _, err := p.expect(tokAssign, "="); err != nil {
		return err
	}
	for {
		val, err := p.expect(tokNumber, "step percentage")
		if err != nil {
			return err
		}
		w, err := parsePercent(val)
		if err != nil {
			return err
		}
		phase.Traffic.Steps = append(phase.Traffic.Steps, w)
		if p.peek().kind != tokComma {
			return nil
		}
		p.next()
	}
}

// parseGroups parses `groups = eu, beta`.
func (p *parser) parseGroups(phase *Phase) error {
	p.next() // "groups"
	if _, err := p.expect(tokAssign, "="); err != nil {
		return err
	}
	for {
		t := p.next()
		if t.kind != tokIdent && t.kind != tokString {
			return fmt.Errorf("bifrost: line %d: expected group name, got %s", t.line, t)
		}
		phase.Traffic.Groups = append(phase.Traffic.Groups, expmodel.UserGroup(t.text))
		if p.peek().kind != tokComma {
			return nil
		}
		p.next()
	}
}

// --- value parsing ---

func parsePercent(t token) (float64, error) {
	if t.kind != tokNumber {
		return 0, fmt.Errorf("bifrost: line %d: expected percentage, got %s", t.line, t)
	}
	text := t.text
	isPercent := strings.HasSuffix(text, "%")
	text = strings.TrimSuffix(text, "%")
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, fmt.Errorf("bifrost: line %d: bad number %q", t.line, t.text)
	}
	if isPercent {
		v /= 100
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("bifrost: line %d: traffic share %q outside [0%%,100%%]", t.line, t.text)
	}
	return v, nil
}

func parseDurationTok(t token) (time.Duration, error) {
	if t.kind != tokNumber {
		return 0, fmt.Errorf("bifrost: line %d: expected duration, got %s", t.line, t)
	}
	d, err := time.ParseDuration(t.text)
	if err != nil {
		return 0, fmt.Errorf("bifrost: line %d: bad duration %q", t.line, t.text)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bifrost: line %d: duration %q must be positive", t.line, t.text)
	}
	return d, nil
}

func parseIntTok(t token) (int, error) {
	if t.kind != tokNumber {
		return 0, fmt.Errorf("bifrost: line %d: expected integer, got %s", t.line, t)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("bifrost: line %d: bad integer %q", t.line, t.text)
	}
	return n, nil
}

func parseFloatTok(t token) (float64, error) {
	if t.kind != tokNumber {
		return 0, fmt.Errorf("bifrost: line %d: expected number, got %s", t.line, t)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(t.text, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bifrost: line %d: bad number %q", t.line, t.text)
	}
	if strings.HasSuffix(t.text, "%") {
		v /= 100
	}
	return v, nil
}
