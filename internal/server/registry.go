// Package server is the match-online half of the deployment model: a
// multi-tenant HTTP daemon that hosts compiled-automaton artifacts and
// serves one-shot and streaming matching over them. Each tenant is one
// loaded artifact; the compile pipeline never runs in this process — the
// paper's compile-offline (Espresso/V-TeSS/placement) vs match-online
// (placed automaton over many input streams) split, rendered as a service.
package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"impala"
	"impala/internal/artifact"
)

// Tenant is one served artifact: an immutable (machine, metadata) pair.
// Requests resolve the tenant once at entry and keep using that snapshot,
// so a concurrent hot-reload never changes an in-flight request's engine —
// the old machine stays alive until its last request finishes.
type Tenant struct {
	// Name is the registry key (the {tenant} path element).
	Name string
	// Machine is the loaded execution engine.
	Machine *impala.Machine
	// Path is the artifact file this tenant was loaded from ("" when the
	// machine was installed directly).
	Path string
	// Domain, when non-empty, is the topology domain this tenant was
	// restricted to at load time (-role worker -domain): the machine hosts
	// only the shards the artifact's TOPO placement assigns there, and
	// reloads keep the restriction.
	Domain string
	// Info is the artifact header (nil when installed directly).
	Info *artifact.Info
	// Generation counts installs of this tenant name (1 = first load);
	// a reload bumps it, which tests and clients use to observe hot-swaps.
	Generation int
	// LoadedAt is the install time.
	LoadedAt time.Time
	// scored is whether the machine carries a weight table — whether the
	// tenant serves scored or binary rows (appendRow) — decided once, at
	// install.
	scored bool
	// nameJSON is Name as a quoted JSON string, escaped once, at install:
	// what every /match document of the tenant opens with.
	nameJSON []byte
}

// appendRow appends mt as one of the tenant's rows, without a separator:
// with its score on a scored tenant, the binary row's exact bytes otherwise.
func (t *Tenant) appendRow(dst []byte, mt impala.Match) []byte {
	if t.scored {
		return appendScoredRow(dst, mt.End, mt.Pattern, mt.Score)
	}
	return appendMatchRow(dst, mt.End, mt.Pattern)
}

// Registry is the tenant table. Readers (the request path) take an atomic
// snapshot of the whole map — no lock, no contention with reloads; writers
// (load, reload, evict) serialize on a mutex and publish a fresh copy:
// copy-on-write hot-swap.
type Registry struct {
	mu sync.Mutex // serializes writers
	v  atomic.Pointer[map[string]*Tenant]
}

// NewRegistry returns an empty tenant registry.
func NewRegistry() *Registry {
	r := &Registry{}
	empty := map[string]*Tenant{}
	r.v.Store(&empty)
	return r
}

func (r *Registry) snapshot() map[string]*Tenant { return *r.v.Load() }

// Get resolves a tenant by name. The returned tenant is an immutable
// snapshot: safe to use for the whole request even across reloads.
func (r *Registry) Get(name string) (*Tenant, bool) {
	t, ok := r.snapshot()[name]
	return t, ok
}

// Len returns the number of tenants.
func (r *Registry) Len() int { return len(r.snapshot()) }

// Names returns the tenant names, sorted.
func (r *Registry) Names() []string {
	m := r.snapshot()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Tenants returns all tenants sorted by name.
func (r *Registry) Tenants() []*Tenant {
	m := r.snapshot()
	out := make([]*Tenant, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// publish installs tenant t (replacing any previous generation) under a
// held writer lock.
func (r *Registry) publish(t *Tenant) {
	t.scored = t.Machine.ScoreInfo() != nil
	t.nameJSON = appendJSONString(nil, t.Name)
	old := r.snapshot()
	next := make(map[string]*Tenant, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if prev, ok := old[t.Name]; ok {
		t.Generation = prev.Generation + 1
	} else {
		t.Generation = 1
	}
	next[t.Name] = t
	r.v.Store(&next)
}

// Install publishes a machine directly (no artifact file) under name —
// used by tests and embedders that compiled in-process.
func (r *Registry) Install(name string, m *impala.Machine) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Tenant{Name: name, Machine: m, LoadedAt: time.Now()}
	r.publish(t)
	return t
}

// LoadFile loads the artifact at path, builds its machine, and atomically
// publishes it under name: a hot-swap when the tenant already exists.
// In-flight requests keep the tenant snapshot they resolved at entry.
func (r *Registry) LoadFile(name, path string) (*Tenant, error) {
	return r.LoadFileDomain(name, path, "")
}

// LoadFileDomain is LoadFile restricted to one topology domain: the
// machine hosts only the shards the artifact's TOPO placement assigns to
// the named domain (the worker side of cluster dispatch). An empty domain
// loads the full machine.
func (r *Registry) LoadFileDomain(name, path, domain string) (*Tenant, error) {
	// One read of the file yields both the machine and the header.
	a, err := artifact.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", name, err)
	}
	var m *impala.Machine
	if domain == "" {
		m, err = impala.MachineFromArtifact(a)
	} else {
		m, err = impala.MachineFromArtifactDomain(a, domain)
	}
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Tenant{Name: name, Machine: m, Path: path, Domain: domain, Info: a.Info(), LoadedAt: time.Now()}
	r.publish(t)
	return t, nil
}

// Reload re-reads the tenant's artifact file and hot-swaps it. It fails
// (leaving the current generation serving) when the tenant is unknown, was
// installed without a path, or the file no longer loads — a bad deploy
// never takes down a serving tenant.
func (r *Registry) Reload(name string) (*Tenant, error) {
	t, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("server: unknown tenant %q", name)
	}
	if t.Path == "" {
		return nil, fmt.Errorf("server: tenant %q was installed without an artifact path", name)
	}
	return r.LoadFileDomain(name, t.Path, t.Domain)
}

// Evict removes a tenant. In-flight requests on the old snapshot finish
// normally; new requests see 404.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	if _, ok := old[name]; !ok {
		return false
	}
	next := make(map[string]*Tenant, len(old))
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	r.v.Store(&next)
	return true
}
