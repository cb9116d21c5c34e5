package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/trace"
	"jmtam/internal/tracestore"
)

// handleRecordingGet serves a compacted recording from the store.
// Responses carry ETag = key (content addresses never change, so
// If-None-Match is a free revalidation) and go through
// http.ServeContent, which honors Range requests — a peer can resume
// an interrupted fetch mid-stream.
func (s *Server) handleRecordingGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "recording store disabled")
		return
	}
	key := r.PathValue("key")
	if !tracestore.ValidKey(key) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "malformed recording key")
		return
	}
	data, ok := s.store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no such recording")
		return
	}
	w.Header().Set("ETag", `"`+key+`"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, key+".jtr", time.Time{}, bytes.NewReader(data))
}

// handleRecordingPut accepts a compacted recording pushed by a peer.
// The payload must parse as a compact recording (header validation);
// the key is taken on trust — it addresses the run descriptor, not the
// bytes, and peers within a fleet derive it identically.
func (s *Server) handleRecordingPut(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "recording store disabled")
		return
	}
	key := r.PathValue("key")
	if !tracestore.ValidKey(key) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "malformed recording key")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRecordingBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge, err.Error())
		return
	}
	if _, err := trace.CompactStat(data); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if err := s.store.Put(key, data); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	s.metrics.Count("store.push.received", 1)
	w.WriteHeader(http.StatusNoContent)
}

// storeUnit resolves one grid cell's compacted recording through the
// fleet — local store, then peers, then simulate once — and streams it
// through the grid without materializing the packed form. The
// simulation summary rides in the recording's annotation, so a fetched
// unit needs no re-simulation. For backends with NIC-resident inlets the
// recorded stream is the compute engine's references only (the NIC's
// stream replays against its own fixed geometry, never the grid), so a
// store-served unit is identical to a freshly simulated one for every
// backend. The returned source names where the recording came from.
func (s *Server) storeUnit(ctx context.Context, w experiments.Workload, impl core.Impl, geoms []cache.Config, par int) (*experiments.Run, string, error) {
	desc := tracestore.Desc{Program: w.Name, Arg: w.Arg, Impl: impl.String(), Nodes: 1}
	data, src, err := s.fleet.GetOrRecord(ctx, desc.Key(), func(ctx context.Context) ([]byte, error) {
		r, rec, err := experiments.RecordOneContext(ctx, w, impl, core.Options{})
		if err != nil {
			return nil, err
		}
		s.metrics.GaugeAdd("sweep.recording.bytes", int64(rec.Bytes()))
		defer s.metrics.GaugeAdd("sweep.recording.bytes", -int64(rec.Bytes()))
		meta := tracestore.RunMeta{
			Desc:         desc,
			Instructions: r.Instructions,
			TPQ:          r.TPQ,
			IPT:          r.IPT,
			IPQ:          r.IPQ,
			Threads:      r.Threads,
			Quanta:       r.Quanta,
		}
		return rec.CompactAnnotated(meta.Encode()), nil
	})
	if err != nil {
		return nil, "", err
	}
	info, err := trace.CompactStat(data)
	if err != nil {
		return nil, "", fmt.Errorf("stored recording %s: %w", desc.Key(), err)
	}
	meta, err := tracestore.DecodeMeta(info.Annotation)
	if err != nil {
		return nil, "", fmt.Errorf("stored recording %s: %w", desc.Key(), err)
	}
	r := &experiments.Run{
		Workload:     w,
		Impl:         impl,
		Instructions: meta.Instructions,
		TPQ:          meta.TPQ,
		IPT:          meta.IPT,
		IPQ:          meta.IPQ,
	}
	r.Caches, err = experiments.ReplayStreamFanOutContext(ctx, func() (*trace.Reader, error) {
		return trace.NewReader(bytes.NewReader(data))
	}, geoms, par)
	if err != nil {
		return nil, "", err
	}
	return r, src.String(), nil
}
