// Command expctl is the operator utility for experimentation-as-code.
// It works on strategy files locally and on a running contexpd over
// HTTP:
//
//	expctl validate strategy.exp     # parse + semantic checks
//	expctl show strategy.exp         # print the state machine
//	expctl fmt strategy.exp          # print the canonical DSL form
//	expctl runs [--addr URL]         # list runs on a daemon, launch order
//	expctl events <run> [--addr URL] # print a run's full event history
//	expctl health <run> [--addr URL] # live topology assessment of a run
//	expctl schedule [--addr URL]     # live schedule: running, queue, Gantt
//	expctl queue [--addr URL]        # queued submissions only
//	expctl agents [--addr URL]       # edge-agent fleet: applied versions, lag
//	expctl tenants [--addr URL]      # per-tenant usage: runs, series, budget
//
// Daemon-facing subcommands share three flags: --addr (base URL),
// --token (bearer token for a daemon running with --auth-tokens;
// defaults to the CONTEXP_TOKEN environment variable), and --tenant
// (filter listings by tenant — meaningful against an auth-free daemon,
// where the caller sees every tenant's runs).
//
// The runs and events commands read the same durable state the daemon
// recovers from its journal, so a run's pre-crash history is readable
// after a restart; schedule and queue read the live scheduler, whose
// pending submissions equally survive a restart.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"contexp/internal/bifrost"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "expctl:", err)
		os.Exit(1)
	}
}

const usage = "usage: expctl <validate|show|fmt> <file.exp> | expctl <runs|schedule|queue|agents|tenants> [--addr URL] [--token T] | expctl <events|health> <run> [--addr URL] [--token T]"

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("%s", usage)
	}
	switch cmd := args[0]; cmd {
	case "validate", "show", "fmt":
		if len(args) < 2 {
			return fmt.Errorf("%s", usage)
		}
		return runFile(cmd, args[1], out)
	case "runs":
		c, rest, err := parseHTTPFlags("runs", args[1:])
		if err != nil {
			return err
		}
		if len(rest) > 0 {
			return fmt.Errorf("runs takes no arguments")
		}
		return listRuns(c, out)
	case "events":
		c, rest, err := parseHTTPFlags("events", args[1:])
		if err != nil {
			return err
		}
		if len(rest) != 1 {
			return fmt.Errorf("usage: expctl events <run> [--addr URL]")
		}
		return showEvents(c, rest[0], out)
	case "health":
		c, rest, err := parseHTTPFlags("health", args[1:])
		if err != nil {
			return err
		}
		if len(rest) != 1 {
			return fmt.Errorf("usage: expctl health <run> [--addr URL]")
		}
		return showHealth(c, rest[0], out)
	case "agents":
		c, rest, err := parseHTTPFlags("agents", args[1:])
		if err != nil {
			return err
		}
		if len(rest) > 0 {
			return fmt.Errorf("agents takes no arguments")
		}
		return listAgents(c, out)
	case "tenants":
		c, rest, err := parseHTTPFlags("tenants", args[1:])
		if err != nil {
			return err
		}
		if len(rest) > 0 {
			return fmt.Errorf("tenants takes no arguments")
		}
		return listTenants(c, out)
	case "schedule", "queue":
		c, rest, err := parseHTTPFlags(cmd, args[1:])
		if err != nil {
			return err
		}
		if len(rest) > 0 {
			return fmt.Errorf("%s takes no arguments", cmd)
		}
		if cmd == "queue" {
			return showQueue(c, out)
		}
		return showSchedule(c, out)
	default:
		return fmt.Errorf("unknown command %q (%s)", cmd, usage)
	}
}

func runFile(cmd, path string, out io.Writer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	strategy, err := bifrost.ParseStrategy(string(src))
	if err != nil {
		return err
	}
	switch cmd {
	case "validate":
		fmt.Fprintf(out, "%s: strategy %q is valid (%d phases)\n", path, strategy.Name, len(strategy.Phases))
	case "show":
		fmt.Fprint(out, strategy.StateMachine())
	case "fmt":
		fmt.Fprint(out, bifrost.WriteDSL(strategy))
	}
	return nil
}

// apiClient carries the daemon connection settings shared by all
// HTTP-facing subcommands.
type apiClient struct {
	addr   string
	token  string
	tenant string
}

// parseHTTPFlags handles the flags shared by the daemon-facing
// subcommands. Flags may come before or after positional arguments.
func parseHTTPFlags(cmd string, args []string) (*apiClient, []string, error) {
	fs := flag.NewFlagSet("expctl "+cmd, flag.ContinueOnError)
	c := &apiClient{}
	fs.StringVar(&c.addr, "addr", "http://localhost:8080", "contexpd base URL")
	fs.StringVar(&c.token, "token", os.Getenv("CONTEXP_TOKEN"),
		"bearer token for a daemon running with --auth-tokens (env CONTEXP_TOKEN)")
	fs.StringVar(&c.tenant, "tenant", "",
		"filter listings by tenant (against an auth-free daemon)")
	// Split positionals out so "expctl events myrun --addr URL" works,
	// in both the space-separated and --addr=URL forms.
	var flags, rest []string
	valueFlags := []string{"addr", "token", "tenant"}
	for i := 0; i < len(args); i++ {
		a := args[i]
		matched := false
		for _, name := range valueFlags {
			switch {
			case a == "--"+name || a == "-"+name:
				flags = append(flags, args[i:min(i+2, len(args))]...)
				i++
				matched = true
			case strings.HasPrefix(a, "--"+name+"=") || strings.HasPrefix(a, "-"+name+"="):
				flags = append(flags, a)
				matched = true
			}
			if matched {
				break
			}
		}
		if !matched {
			rest = append(rest, a)
		}
	}
	if err := fs.Parse(flags); err != nil {
		return nil, nil, err
	}
	return c, rest, nil
}

// get issues an authenticated GET against the daemon. path may carry a
// query string, so it is appended verbatim, not URL-joined.
func (c *apiClient) get(path string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, strings.TrimRight(c.addr, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	return client.Do(req)
}

// getJSON fetches one API resource into v, surfacing the API's typed
// error envelope (code + message) on non-200s.
func (c *apiClient) getJSON(path string, v any) error {
	resp, err := c.get(path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// apiError renders a non-200 response, preferring the typed envelope.
func apiError(resp *http.Response) error {
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&envelope) == nil && envelope.Error.Message != "" {
		if envelope.Error.Code != "" {
			return fmt.Errorf("%s [%s]: %s", resp.Status, envelope.Error.Code, envelope.Error.Message)
		}
		return fmt.Errorf("%s: %s", resp.Status, envelope.Error.Message)
	}
	return fmt.Errorf("%s: %s", resp.Request.URL, resp.Status)
}

// runView mirrors the server's RunSummary.
type runView struct {
	Name      string `json:"name"`
	Tenant    string `json:"tenant"`
	Service   string `json:"service"`
	Baseline  string `json:"baseline"`
	Candidate string `json:"candidate"`
	Status    string `json:"status"`
	Phase     string `json:"phase"`
	Events    int    `json:"events"`
	Recovered bool   `json:"recovered"`
}

// eventView mirrors the server's EventView.
type eventView struct {
	At      time.Time `json:"at"`
	Type    string    `json:"type"`
	Phase   string    `json:"phase"`
	Check   string    `json:"check"`
	Outcome string    `json:"outcome"`
	Detail  string    `json:"detail"`
}

// listRuns pages through GET /v1/runs ({items, nextCursor}) until the
// listing is exhausted.
func listRuns(c *apiClient, out io.Writer) error {
	base := "/v1/runs?limit=100"
	if c.tenant != "" {
		base += "&tenant=" + url.QueryEscape(c.tenant)
	}
	var runs []runView
	cursor := ""
	for {
		path := base
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		var resp struct {
			Items      []runView `json:"items"`
			NextCursor string    `json:"nextCursor"`
		}
		if err := c.getJSON(path, &resp); err != nil {
			return err
		}
		runs = append(runs, resp.Items...)
		if resp.NextCursor == "" {
			break
		}
		cursor = resp.NextCursor
	}
	if len(runs) == 0 {
		fmt.Fprintln(out, "no runs")
		return nil
	}
	fmt.Fprintf(out, "%-28s %-10s %-12s %-14s %-20s %7s\n", "NAME", "TENANT", "STATUS", "PHASE", "SERVICE", "EVENTS")
	for _, r := range runs {
		name := r.Name
		if r.Recovered {
			name += " (recovered)"
		}
		tenant := r.Tenant
		if tenant == "" {
			tenant = "default"
		}
		fmt.Fprintf(out, "%-28s %-10s %-12s %-14s %-20s %7d\n",
			name, tenant, r.Status, r.Phase, fmt.Sprintf("%s %s->%s", r.Service, r.Baseline, r.Candidate), r.Events)
	}
	return nil
}

// listTenants prints per-tenant usage from GET /v1/admin/tenants.
func listTenants(c *apiClient, out io.Writer) error {
	var resp struct {
		Items []struct {
			Name      string `json:"name"`
			Runs      int    `json:"runs"`
			LiveRuns  int    `json:"liveRuns"`
			Series    int    `json:"series"`
			Requests  uint64 `json:"requests"`
			Throttled uint64 `json:"throttled"`
		} `json:"items"`
	}
	if err := c.getJSON("/v1/admin/tenants", &resp); err != nil {
		return err
	}
	if len(resp.Items) == 0 {
		fmt.Fprintln(out, "no tenants")
		return nil
	}
	fmt.Fprintf(out, "%-16s %6s %6s %8s %10s %10s\n", "TENANT", "RUNS", "LIVE", "SERIES", "REQUESTS", "THROTTLED")
	for _, t := range resp.Items {
		fmt.Fprintf(out, "%-16s %6d %6d %8d %10d %10d\n",
			t.Name, t.Runs, t.LiveRuns, t.Series, t.Requests, t.Throttled)
	}
	return nil
}

// scheduleView mirrors the scheduler's ScheduleSnapshot.
type scheduleView struct {
	Capacity      float64 `json:"capacity"`
	MaxConcurrent int     `json:"maxConcurrent"`
	Running       []struct {
		Name      string    `json:"name"`
		Service   string    `json:"service"`
		Share     float64   `json:"share"`
		EstEnd    time.Time `json:"estEnd"`
		StartedAt time.Time `json:"startedAt"`
	} `json:"running"`
	Queue []queueView `json:"queue"`
}

// queueView mirrors the scheduler's QueueEntryView.
type queueView struct {
	Name         string    `json:"name"`
	Service      string    `json:"service"`
	Groups       []string  `json:"groups"`
	Share        float64   `json:"share"`
	Position     int       `json:"position"`
	QueuedAt     time.Time `json:"queuedAt"`
	PlannedStart time.Time `json:"plannedStart"`
	EstDuration  string    `json:"estDuration"`
	Reason       string    `json:"reason"`
	Recovered    bool      `json:"recovered"`
}

func getSchedule(c *apiClient) (*scheduleView, error) {
	var view scheduleView
	if err := c.getJSON("/v1/schedule", &view); err != nil {
		return nil, err
	}
	return &view, nil
}

func printQueue(entries []queueView, out io.Writer) {
	if len(entries) == 0 {
		fmt.Fprintln(out, "queue is empty")
		return
	}
	fmt.Fprintf(out, "%-4s %-24s %-16s %6s %-20s %s\n", "POS", "NAME", "SERVICE", "SHARE", "PLANNED-START", "WAITING-ON")
	for _, q := range entries {
		name := q.Name
		if q.Recovered {
			name += " (recovered)"
		}
		planned := "-"
		if !q.PlannedStart.IsZero() {
			planned = q.PlannedStart.Format(time.RFC3339)
		}
		fmt.Fprintf(out, "%-4d %-24s %-16s %5.0f%% %-20s %s\n",
			q.Position, name, q.Service, q.Share*100, planned, q.Reason)
	}
}

// showSchedule prints the live schedule: running runs, the queue, and
// the projection's ASCII Gantt chart.
func showSchedule(c *apiClient, out io.Writer) error {
	view, err := getSchedule(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "capacity %.0f%%, max-concurrent %d\n", view.Capacity*100, view.MaxConcurrent)
	fmt.Fprintf(out, "\nrunning (%d):\n", len(view.Running))
	for _, r := range view.Running {
		fmt.Fprintf(out, "  %-24s %-16s %5.0f%%  est-end %s\n",
			r.Name, r.Service, r.Share*100, r.EstEnd.Format(time.RFC3339))
	}
	fmt.Fprintf(out, "\nqueued (%d):\n", len(view.Queue))
	printQueue(view.Queue, out)

	// The Gantt chart comes pre-rendered from the daemon.
	resp, err := c.get("/v1/schedule?format=gantt")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	gantt, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(gantt)))
	}
	fmt.Fprintf(out, "\n%s", gantt)
	return nil
}

// showQueue prints only the queued submissions.
func showQueue(c *apiClient, out io.Writer) error {
	view, err := getSchedule(c)
	if err != nil {
		return err
	}
	printQueue(view.Queue, out)
	return nil
}

// agentView mirrors the server's fleet.AgentState.
type agentView struct {
	ID             string    `json:"id"`
	Addr           string    `json:"addr"`
	Connected      bool      `json:"connected"`
	SentVersion    uint64    `json:"sentVersion"`
	AppliedVersion uint64    `json:"appliedVersion"`
	Lag            uint64    `json:"lag"`
	LastAck        time.Time `json:"lastAck"`
	Resolves       uint64    `json:"resolves"`
	Stale          bool      `json:"stale"`
}

// listAgents prints the edge-agent fleet: who is connected, which
// routing snapshot version each agent has applied, and how far behind
// the control plane's published version it is.
func listAgents(c *apiClient, out io.Writer) error {
	var resp struct {
		CurrentVersion uint64      `json:"currentVersion"`
		Agents         []agentView `json:"items"`
	}
	if err := c.getJSON("/v1/agents", &resp); err != nil {
		return err
	}
	fmt.Fprintf(out, "routing snapshot version %d, %d agents\n", resp.CurrentVersion, len(resp.Agents))
	if len(resp.Agents) == 0 {
		return nil
	}
	fmt.Fprintf(out, "%-20s %-22s %-10s %8s %5s %10s %-10s\n",
		"ID", "ADDR", "STATE", "APPLIED", "LAG", "RESOLVES", "LAST-ACK")
	for _, a := range resp.Agents {
		state := "offline"
		switch {
		case a.Connected && a.Stale:
			state = "stale" // connected but self-reporting an expired lease
		case a.Connected:
			state = "live"
		case a.Stale:
			state = "stale"
		}
		lastAck := "-"
		if !a.LastAck.IsZero() {
			lastAck = time.Since(a.LastAck).Round(time.Second).String() + " ago"
		}
		fmt.Fprintf(out, "%-20s %-22s %-10s %8d %5d %10d %-10s\n",
			a.ID, a.Addr, state, a.AppliedVersion, a.Lag, a.Resolves, lastAck)
	}
	return nil
}

// showHealth prints a run's live topology assessment: the evidence
// base, then the daemon-rendered report (diff + heuristic rankings).
func showHealth(c *apiClient, name string, out io.Writer) error {
	var view struct {
		Run             string `json:"run"`
		Service         string `json:"service"`
		Baseline        string `json:"baseline"`
		Candidate       string `json:"candidate"`
		Frozen          bool   `json:"frozen"`
		BaselineTraces  int    `json:"baselineTraces"`
		CandidateTraces int    `json:"candidateTraces"`
		SkippedTraces   int    `json:"skippedTraces"`
		Report          string `json:"report"`
	}
	if err := c.getJSON("/v1/runs/"+url.PathEscape(name)+"/health", &view); err != nil {
		return err
	}
	state := "live"
	if view.Frozen {
		state = "frozen"
	}
	fmt.Fprintf(out, "run %q — topology assessment (%s)\n", view.Run, state)
	fmt.Fprintf(out, "service %s (%s -> %s): %d baseline traces, %d candidate traces, %d without signal\n\n",
		view.Service, view.Baseline, view.Candidate,
		view.BaselineTraces, view.CandidateTraces, view.SkippedTraces)
	fmt.Fprint(out, view.Report)
	return nil
}

func showEvents(c *apiClient, name string, out io.Writer) error {
	var detail struct {
		runView
		EventLog []eventView `json:"eventLog"`
	}
	if err := c.getJSON("/v1/runs/"+url.PathEscape(name), &detail); err != nil {
		return err
	}
	fmt.Fprintf(out, "run %q (%s) — %d events\n", detail.Name, detail.Status, len(detail.EventLog))
	for _, ev := range detail.EventLog {
		line := fmt.Sprintf("%s  %-16s", ev.At.Format(time.RFC3339), ev.Type)
		if ev.Phase != "" {
			line += " phase=" + ev.Phase
		}
		if ev.Check != "" {
			line += " check=" + ev.Check
		}
		if ev.Outcome != "" {
			line += " outcome=" + ev.Outcome
		}
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		fmt.Fprintln(out, line)
	}
	return nil
}
