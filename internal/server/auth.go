package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"jmtam/api"
)

// TenantLimits bounds one tenant's admission. Zero values mean
// unlimited on that axis.
type TenantLimits struct {
	// MaxConcurrent caps the tenant's simultaneously queued-or-running
	// jobs.
	MaxConcurrent int
	// JobsPerMinute is the token-bucket refill rate. The bucket starts
	// full, so a tenant can burst Burst submissions before the rate
	// bites.
	JobsPerMinute float64
	// Burst is the bucket capacity (0 = JobsPerMinute).
	Burst float64
}

// Tenants maps API keys to tenant names and tenants to their limits.
// A nil *Tenants disables tenancy entirely: no auth, no quotas, no
// tenant metrics.
type Tenants struct {
	byKey  map[string]string
	limits map[string]TenantLimits
}

// NewTenants returns an empty key table.
func NewTenants() *Tenants {
	return &Tenants{byKey: make(map[string]string), limits: make(map[string]TenantLimits)}
}

// Add registers one API key for tenant. Several keys may share a
// tenant; they then share its limits and counters. The last Add for a
// tenant wins its limits.
func (t *Tenants) Add(key, tenant string, lim TenantLimits) {
	t.byKey[key] = tenant
	t.limits[tenant] = lim
}

// resolve maps an API key to its tenant.
func (t *Tenants) resolve(key string) (string, bool) {
	tenant, ok := t.byKey[key]
	return tenant, ok
}

// LoadTenants parses an API-keys file: one `<key> <tenant>
// [max_concurrent] [jobs_per_minute] [burst]` per line, '#' comments
// (whole-line or trailing) and blank lines ignored. 0 (or an omitted
// column) means unlimited on that axis.
func LoadTenants(path string) (*Tenants, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := NewTenants()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want <key> <tenant> [max_concurrent] [jobs_per_minute] [burst]", path, lineNo)
		}
		if len(fields) > 5 {
			return nil, fmt.Errorf("%s:%d: too many columns", path, lineNo)
		}
		var lim TenantLimits
		cols := make([]float64, 0, 3)
		for _, field := range fields[2:] {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("%s:%d: bad limit %q", path, lineNo, field)
			}
			cols = append(cols, v)
		}
		if len(cols) > 0 {
			lim.MaxConcurrent = int(cols[0])
		}
		if len(cols) > 1 {
			lim.JobsPerMinute = cols[1]
		}
		if len(cols) > 2 {
			lim.Burst = cols[2]
		}
		t.Add(fields[0], fields[1], lim)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.byKey) == 0 {
		return nil, fmt.Errorf("%s: no API keys", path)
	}
	return t, nil
}

type tenantCtxKey struct{}

// tenantOf returns the authenticated tenant for a request ("" when
// tenancy is disabled).
func tenantOf(r *http.Request) string {
	t, _ := r.Context().Value(tenantCtxKey{}).(string)
	return t
}

// authExempt lists the paths the Bearer check skips: health and
// metrics probes, and the fleet-internal blob endpoints (recordings
// and results travel daemon-to-daemon, inside the trust boundary the
// front door guards the edge of).
func authExempt(path string) bool {
	return path == "/healthz" || path == "/readyz" || path == "/metricz" ||
		strings.HasPrefix(path, "/v1/recordings/") ||
		strings.HasPrefix(path, "/v1/results/")
}

// withAuth wraps next with API-key resolution: exempt paths pass
// through, everything else needs `Authorization: Bearer <key>` naming
// a known key, and the resolved tenant rides the request context.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if authExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		auth := r.Header.Get("Authorization")
		key, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok || key == "" {
			s.metrics.Count("auth.missing", 1)
			writeError(w, http.StatusUnauthorized, api.CodeUnauthorized, "missing Authorization: Bearer <api-key>")
			return
		}
		tenant, ok := s.cfg.Tenants.resolve(key)
		if !ok {
			s.metrics.Count("auth.rejected", 1)
			writeError(w, http.StatusUnauthorized, api.CodeUnauthorized, "unknown API key")
			return
		}
		s.metrics.Count("tenant."+tenant+".requests", 1)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant)))
	})
}

// visibleTo says whether a job may be seen (status, stream, cancel,
// list) by the request's tenant. Without tenancy every job is visible;
// with it, tenants see exactly their own jobs.
func (s *Server) visibleTo(r *http.Request, job *Job) bool {
	if s.cfg.Tenants == nil {
		return true
	}
	return job.Tenant == tenantOf(r)
}
