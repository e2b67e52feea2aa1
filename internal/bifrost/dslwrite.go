package bifrost

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// WriteDSL renders a strategy back into its DSL form. Parse(WriteDSL(s))
// yields a strategy equal to s (verified by a round-trip property test
// and FuzzParseStrategy), which is what makes experimentation-as-code
// reviewable: the engine can always show the canonical source of what
// it is executing. Names are always quoted (%q is strconv.Quote, which
// the lexer reverses); other free-form values go through value.
func WriteDSL(s *Strategy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %q {\n", s.Name)
	fmt.Fprintf(&b, "    service   = %q\n", s.Service)
	fmt.Fprintf(&b, "    baseline  = %q\n", s.Baseline)
	fmt.Fprintf(&b, "    candidate = %q\n", s.Candidate)
	for i := range s.Phases {
		b.WriteString("\n")
		writePhase(&b, &s.Phases[i])
	}
	b.WriteString("}\n")
	return b.String()
}

func writePhase(b *strings.Builder, p *Phase) {
	fmt.Fprintf(b, "    phase %q {\n", p.Name)
	fmt.Fprintf(b, "        practice = %s\n", p.Practice)
	t := &p.Traffic
	if len(t.Steps) > 0 {
		steps := make([]string, len(t.Steps))
		for i, w := range t.Steps {
			steps[i] = percent(w)
		}
		fmt.Fprintf(b, "        steps = %s\n", strings.Join(steps, ", "))
		fmt.Fprintf(b, "        step-duration = %s\n", duration(t.StepDuration))
	} else if !t.Mirror && t.CandidateWeight > 0 {
		fmt.Fprintf(b, "        traffic = %s\n", percent(t.CandidateWeight))
	}
	if len(t.Groups) > 0 {
		fmt.Fprintf(b, "        groups = %s\n", values(t.Groups))
	}
	if p.Duration > 0 && len(t.Steps) == 0 {
		fmt.Fprintf(b, "        duration = %s\n", duration(p.Duration))
	}
	if p.MinSamples > 0 {
		fmt.Fprintf(b, "        min-samples = %d\n", p.MinSamples)
	}
	if p.MaxRetries > 0 {
		fmt.Fprintf(b, "        max-retries = %d\n", p.MaxRetries)
	}
	for i := range p.Checks {
		writeCheck(b, &p.Checks[i])
	}
	writeChain(b, "success", p.OnSuccess)
	writeChain(b, "failure", p.OnFailure)
	writeChain(b, "inconclusive", p.OnInconclusive)
	b.WriteString("    }\n")
}

func writeCheck(b *strings.Builder, c *Check) {
	fmt.Fprintf(b, "        check %q {\n", c.Name)
	if c.Kind == CheckTopology {
		b.WriteString("            kind      = topology\n")
		if c.Heuristic != "" {
			// Quoted: heuristic names like "hybrid-0.5" do not lex as one
			// identifier.
			fmt.Fprintf(b, "            heuristic = %q\n", c.Heuristic)
		}
		if c.MaxChanges > 0 {
			fmt.Fprintf(b, "            max-ranked-changes = %d\n", c.MaxChanges)
		}
		if c.MinTraces > 0 {
			fmt.Fprintf(b, "            min-traces = %d\n", c.MinTraces)
		}
		if len(c.Allow) > 0 {
			fmt.Fprintf(b, "            allow     = %s\n", values(c.Allow))
		}
	} else {
		fmt.Fprintf(b, "            metric    = %s\n", value(c.Metric))
		fmt.Fprintf(b, "            aggregate = %s\n", c.Aggregation)
		switch c.Scope {
		case ScopeBaseline:
			b.WriteString("            scope     = baseline\n")
		case ScopeRelative:
			b.WriteString("            scope     = relative\n")
		}
		bound := "min"
		if c.Upper {
			bound = "max"
		}
		fmt.Fprintf(b, "            %s       = %g\n", bound, c.Threshold)
		if c.Window > 0 {
			fmt.Fprintf(b, "            window    = %s\n", duration(c.Window))
		}
	}
	if c.Interval > 0 {
		fmt.Fprintf(b, "            interval  = %s\n", duration(c.Interval))
	}
	if c.FailuresToTrip > 0 {
		fmt.Fprintf(b, "            failures  = %d\n", c.FailuresToTrip)
	}
	b.WriteString("        }\n")
}

func writeChain(b *strings.Builder, outcome string, tr Transition) {
	if tr.Kind == 0 {
		return // default transition; omitted for brevity
	}
	var action string
	switch tr.Kind {
	case TransitionGoto:
		action = fmt.Sprintf("phase %q", tr.Target)
	default:
		action = tr.Kind.String()
	}
	fmt.Fprintf(b, "        on %s -> %s\n", outcome, action)
}

// value renders a free-form value (metric, group, allowed change class)
// bare when it lexes back as one identifier, and as a quoted string
// otherwise: "5xx_errors" would lex as a number and "beta users" as two
// identifiers.
func value(v string) string {
	if toks, err := lex(v); err == nil && len(toks) == 2 && toks[0].kind == tokIdent && toks[0].text == v {
		return v
	}
	return strconv.Quote(v)
}

// values renders a comma-separated list of values.
func values[S ~string](vs []S) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = value(string(v))
	}
	return strings.Join(out, ", ")
}

// percent renders a fraction as a DSL percentage where exact, falling
// back to the fractional form.
func percent(w float64) string {
	p := w * 100
	if p == float64(int(p)) {
		return fmt.Sprintf("%d%%", int(p))
	}
	return fmt.Sprintf("%g", w)
}

// duration renders a time.Duration in the DSL's compact form.
func duration(d time.Duration) string {
	return d.String()
}
