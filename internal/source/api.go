package source

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"bdi/internal/wrapper"
)

// API simulates one third-party data provider exposing versioned REST
// endpoints. Endpoints are registered per version and path; the handler
// serves them under /vN/<path>. Deprecated versions can be switched off to
// simulate a provider removing an old schema version.
type API struct {
	Name string

	mu        sync.RWMutex
	endpoints map[string]func() ([]wrapper.Document, error)
	disabled  map[string]bool
	requests  map[string]int
}

// NewAPI returns an empty API simulator.
func NewAPI(name string) *API {
	return &API{
		Name:      name,
		endpoints: map[string]func() ([]wrapper.Document, error){},
		disabled:  map[string]bool{},
		requests:  map[string]int{},
	}
}

// Register adds an endpoint (e.g. version "v1", path "events") backed by a
// document producer.
func (a *API) Register(version, path string, produce func() ([]wrapper.Document, error)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.endpoints[endpointKey(version, path)] = produce
}

// RegisterStatic is Register for a fixed document slice.
func (a *API) RegisterStatic(version, path string, docs []wrapper.Document) {
	a.Register(version, path, func() ([]wrapper.Document, error) { return docs, nil })
}

// Retire disables an endpoint version, simulating the provider shutting down
// a deprecated schema version; subsequent requests return 410 Gone.
func (a *API) Retire(version, path string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.disabled[endpointKey(version, path)] = true
}

// RequestCount returns how many times the endpoint has been served.
func (a *API) RequestCount(version, path string) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.requests[endpointKey(version, path)]
}

// Source returns a DocumentSource reading the endpoint in-process (no HTTP),
// which is how examples and tests usually consume the simulator.
func (a *API) Source(version, path string) wrapper.DocumentSource {
	return wrapper.DocumentFunc(func(context.Context) ([]wrapper.Document, error) {
		a.mu.Lock()
		key := endpointKey(version, path)
		produce, ok := a.endpoints[key]
		disabled := a.disabled[key]
		a.requests[key]++
		a.mu.Unlock()
		if !ok || disabled {
			return nil, &EndpointError{API: a.Name, Version: version, Path: path, Gone: disabled}
		}
		return produce()
	})
}

// EndpointError reports a missing or retired endpoint.
type EndpointError struct {
	API     string
	Version string
	Path    string
	Gone    bool
}

// Error implements error.
func (e *EndpointError) Error() string {
	state := "not found"
	if e.Gone {
		state = "has been retired"
	}
	return "source: endpoint " + e.API + "/" + e.Version + "/" + e.Path + " " + state
}

// ServeHTTP implements http.Handler: GET /<version>/<path> returns the JSON
// array of documents of that endpoint.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := strings.SplitN(strings.Trim(r.URL.Path, "/"), "/", 2)
	if len(parts) != 2 {
		http.Error(w, "expected /<version>/<endpoint>", http.StatusNotFound)
		return
	}
	version, path := parts[0], parts[1]
	a.mu.Lock()
	key := endpointKey(version, path)
	produce, ok := a.endpoints[key]
	disabled := a.disabled[key]
	a.requests[key]++
	a.mu.Unlock()
	if disabled {
		http.Error(w, "endpoint retired", http.StatusGone)
		return
	}
	if !ok {
		http.Error(w, "unknown endpoint", http.StatusNotFound)
		return
	}
	docs, err := produce()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(docs); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func endpointKey(version, path string) string { return version + "/" + path }

// Ecosystem bundles the three SUPERSEDE-like providers (VoD monitoring,
// feedback gathering and the application registry) backed by one Generator.
type Ecosystem struct {
	Generator *Generator
	VoD       *API
	Feedback  *API
	Registry  *API
}

// NewEcosystem builds the simulated provider ecosystem. The VoD API exposes
// both its v1 and v2 schema versions; the other APIs expose a single
// version.
func NewEcosystem(gen *Generator) *Ecosystem {
	vod := NewAPI("vod-monitor")
	vod.Register("v1", "events", func() ([]wrapper.Document, error) { return gen.VoDDocumentsV1(), nil })
	vod.Register("v2", "events", func() ([]wrapper.Document, error) { return gen.VoDDocumentsV2(), nil })

	fb := NewAPI("feedback-gathering")
	fb.Register("v1", "feedback", func() ([]wrapper.Document, error) { return gen.FeedbackDocuments(), nil })

	regAPI := NewAPI("app-registry")
	regAPI.Register("v1", "apps", func() ([]wrapper.Document, error) { return gen.AppLinkDocuments(), nil })

	return &Ecosystem{Generator: gen, VoD: vod, Feedback: fb, Registry: regAPI}
}

// Mux returns an http.Handler exposing the three providers under
// /vod/, /feedback/ and /apps/ path prefixes.
func (e *Ecosystem) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/vod/", http.StripPrefix("/vod", e.VoD))
	mux.Handle("/feedback/", http.StripPrefix("/feedback", e.Feedback))
	mux.Handle("/apps/", http.StripPrefix("/apps", e.Registry))
	return mux
}
