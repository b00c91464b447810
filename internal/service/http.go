package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// maxBodyBytes caps request bodies (submissions and cache imports).
const maxBodyBytes = 64 << 20

// errorJSON is the error envelope every non-2xx response carries.
type errorJSON struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST   /sessions        submit a tuning session
//	GET    /sessions        list sessions
//	GET    /sessions/{id}   poll one session's progress
//	GET    /sessions/{id}/best    best configuration (once done)
//	GET    /sessions/{id}/result  full record trajectory (once done)
//	DELETE /sessions/{id}   cancel
//	GET    /cache           export the evaluation cache artifact
//	PUT    /cache           import a cache artifact (merge, first write wins)
//	GET    /cache/stats     cache size and hit/miss totals
//	GET    /metrics         metrics registry snapshot (text)
//	GET    /healthz         liveness probe
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", srv.handleSubmit)
	mux.HandleFunc("GET /sessions", srv.handleList)
	mux.HandleFunc("GET /sessions/{id}", srv.handleStatus)
	mux.HandleFunc("GET /sessions/{id}/best", srv.handleBest)
	mux.HandleFunc("GET /sessions/{id}/result", srv.handleResult)
	mux.HandleFunc("DELETE /sessions/{id}", srv.handleCancel)
	mux.HandleFunc("GET /cache", srv.handleCacheExport)
	mux.HandleFunc("PUT /cache", srv.handleCacheImport)
	mux.HandleFunc("GET /cache/stats", srv.handleCacheStats)
	probes := obs.Handler(srv.reg)
	mux.Handle("GET /metrics", probes)
	mux.Handle("GET /healthz", probes)
	return mux
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The client is gone if this fails; there is nothing left to tell it.
	_ = enc.Encode(v)
}

// writeError writes the error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// notFound distinguishes unknown ids (404) from state conflicts (409).
func isUnknownSession(err error) bool {
	return strings.Contains(err.Error(), "unknown session")
}

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	st, err := srv.Submit(req)
	switch {
	case errors.Is(err, ErrBusy):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Location", "/sessions/"+st.ID)
		writeJSON(w, http.StatusCreated, st)
	}
}

func (srv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, srv.Sessions())
}

func (srv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (srv *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	best, err := srv.BestOf(r.PathValue("id"))
	if err != nil {
		code := http.StatusConflict
		if isUnknownSession(err) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, best)
}

func (srv *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := srv.Result(r.PathValue("id"))
	if err != nil {
		code := http.StatusConflict
		if isUnknownSession(err) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (srv *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := srv.Cancel(r.PathValue("id"))
	if err != nil {
		code := http.StatusConflict
		if isUnknownSession(err) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (srv *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := srv.cache.Export(w); err != nil {
		// Too late for a status code change; the log is the best we can do.
		srv.opts.Logf("cache export: %v", err)
	}
}

func (srv *Server) handleCacheImport(w http.ResponseWriter, r *http.Request) {
	stats, err := srv.cache.Import(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// cacheStatsJSON is the GET /cache/stats response.
type cacheStatsJSON struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

func (srv *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := srv.cache.Stats()
	writeJSON(w, http.StatusOK, cacheStatsJSON{
		Entries: srv.cache.Len(), Hits: hits, Misses: misses,
	})
}
