// Command sweepctl drives a tamsimd daemon's sweep API from the shell:
//
//	sweepctl                                  # submit the quick grid, follow progress
//	sweepctl -scale paper -o table2.json      # full Table 2 grid, result to a file
//	sweepctl -f req.json -detail              # submit a hand-written request
//	sweepctl -key $TAMSIM_KEY                 # authenticate against a tenanted daemon
//	sweepctl -status s-000001                 # poll one job
//	sweepctl -cancel s-000001                 # cancel one job
//	sweepctl -metricz                         # dump the daemon's metrics registry
//
// Requests and stream events are the root api package's types end to
// end. Submissions stream the job's NDJSON events: progress lines
// (including the coordinator's per-shard lease/retry/re-queue events
// when the daemon is sharding across workers, and "cached" lines when
// the fleet result cache serves the job) go to stderr, the final
// result document to stdout or -o. With -detach the job ID is printed
// immediately instead and the job keeps running on the daemon.
//
// Failures branch on the daemon's structured error envelope: a
// retryable rejection (quota_exhausted, unavailable, internal)
// resubmits after the server's Retry-After (or a short default) up to
// -retries times; bad_request and friends fail immediately.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"jmtam/api"
	"jmtam/internal/core"
)

var apiKey string

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8347", "tamsimd base URL")
	scale := flag.String("scale", "quick", "workload scale when no -f request: quick|paper")
	reqFile := flag.String("f", "", "sweep request JSON file (\"-\" = stdin; overrides -scale)")
	detail := flag.Bool("detail", false, "request per-geometry miss statistics in the result")
	detach := flag.Bool("detach", false, "submit and print the job ID instead of streaming")
	out := flag.String("o", "", "write the final result document here (default stdout)")
	status := flag.String("status", "", "print one job's status and exit")
	cancel := flag.String("cancel", "", "cancel one job and exit")
	metricz := flag.Bool("metricz", false, "print the daemon's /metricz registry and exit")
	key := flag.String("key", os.Getenv("TAMSIM_API_KEY"), "API key for a tenanted daemon (default $TAMSIM_API_KEY)")
	retries := flag.Int("retries", 4, "max resubmissions of a retryable rejection (quota, unavailable)")
	implsArg := flag.String("impls", "", "comma-separated backends to sweep (known: "+strings.Join(core.BackendNames(), ", ")+"; empty = daemon default md,am)")
	flag.Parse()
	apiKey = *key

	impls, err := implList(*implsArg)
	if err != nil {
		fatal(err)
	}

	base := strings.TrimRight(*addr, "/")
	switch {
	case *metricz:
		get(base + "/metricz")
	case *status != "":
		get(base + "/v1/runs/" + *status)
	case *cancel != "":
		del(base + "/v1/runs/" + *cancel)
	default:
		submit(base, *scale, *reqFile, impls, *detail, *detach, *out, *retries)
	}
}

// implList validates -impls against the backend registry before the
// request leaves the client, so typos fail with the full list of known
// backends instead of a round-trip to the daemon.
func implList(arg string) ([]string, error) {
	if arg == "" {
		return nil, nil
	}
	impls, err := core.ParseImpls(arg)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(impls))
	for i, impl := range impls {
		names[i] = impl.Name()
	}
	return names, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepctl:", err)
	os.Exit(1)
}

// do sends req with the API key attached and decodes a non-2xx
// response into the structured error.
func do(req *http.Request) (*http.Response, *api.Error) {
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, &api.Error{Code: api.CodeUnavailable, Message: err.Error(), Retryable: true}
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	apiErr := api.DecodeError(resp.StatusCode, body)
	apiErr.Status = resp.StatusCode
	retryAfter = resp.Header.Get("Retry-After")
	return nil, apiErr
}

// retryAfter holds the last response's Retry-After header; sweepctl is
// a single-flight CLI, so a package-level slot is fine.
var retryAfter string

func retryDelay(attempt int) time.Duration {
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Duration(attempt+1) * time.Second
}

func get(url string) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		fatal(err)
	}
	resp, apiErr := do(req)
	if apiErr != nil {
		fatal(apiErr)
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
}

func del(url string) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		fatal(err)
	}
	resp, apiErr := do(req)
	if apiErr != nil {
		fatal(apiErr)
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
}

// buildRequest assembles the typed sweep request: the -scale preset,
// or a request document from a file/stdin (strictly validated against
// api.SweepRequest — unknown fields are an error here, not on the
// daemon).
func buildRequest(scale, reqFile string, impls []string, detail bool) ([]byte, error) {
	var req api.SweepRequest
	switch reqFile {
	case "":
		req.Scale = scale
	default:
		var raw []byte
		var err error
		if reqFile == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(reqFile)
		}
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("%s: %w", reqFile, err)
		}
	}
	if len(impls) > 0 {
		req.Impls = impls
	}
	if detail {
		req.Detail = true
	}
	return json.Marshal(req)
}

func submit(base, scale, reqFile string, impls []string, detail, detach bool, out string, retries int) {
	body, err := buildRequest(scale, reqFile, impls, detail)
	if err != nil {
		fatal(err)
	}
	url := base + "/v1/sweeps"
	if detach {
		url += "?detach=1"
	}
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		var apiErr *api.Error
		resp, apiErr = do(req)
		if apiErr == nil {
			break
		}
		if !apiErr.Retryable || attempt >= retries {
			fatal(apiErr)
		}
		d := retryDelay(attempt)
		fmt.Fprintf(os.Stderr, "sweepctl: %s; retrying in %s (%d/%d)\n", apiErr, d, attempt+1, retries)
		time.Sleep(d)
	}
	defer resp.Body.Close()
	if detach {
		io.Copy(os.Stdout, resp.Body)
		return
	}

	// Follow the NDJSON stream: narrate progress on stderr, capture the
	// terminal line.
	last, err := api.ReadStream(resp.Body, func(ev api.Event, line []byte) {
		switch ev.Type {
		case api.EventResult: // written out below
		case api.EventError, api.EventCanceled:
			fmt.Fprintf(os.Stderr, "sweepctl: job %s: %s\n", ev.Type, ev.Error)
		case api.EventCached:
			fmt.Fprintf(os.Stderr, "sweepctl: result served from %s cache (%s)\n", ev.Source, ev.Key[:12])
		default:
			fmt.Fprintf(os.Stderr, "%s\n", line)
		}
	})
	if err != nil {
		fatal(err)
	}
	if last.Type != api.EventResult {
		os.Exit(1)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, last.Result, "", "  "); err != nil {
		fatal(err)
	}
	buf.WriteByte('\n')
	if out == "" {
		os.Stdout.Write(buf.Bytes())
		return
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweepctl: result written to %s\n", out)
}
