package server

// Every /v1/analyze reply is built from one record, the program's
// api.ArtifactBundle: its method reports, parallel methods, loop counts
// and, when asked for, its emitted parallel source. A warm hit renders
// the bundle from the cached System; a cold load renders it once and,
// when a blob tier is configured, publishes that same bundle there; a
// replica that misses on a fingerprint a peer published adopts the
// bundle (tier read, decode, integrity check) instead of re-running
// parse, type check and commutativity analysis. analyzeFromBundle turns
// any of them into the reply.

import (
	"time"

	"commute"
	"commute/internal/cond"
	"commute/internal/core"
	"commute/internal/server/api"
)

// analysis is the bundle an analyze reply is built from and the reply's
// cache word, from the three serving tiers in cost order: the warm
// in-memory System, an adopted fleet artifact, then the full pipeline.
func (s *Server) analysis(p program, emit bool) (*api.ArtifactBundle, string, error) {
	start := time.Now()
	if sys, ok := s.cache.Peek(p.key); ok {
		s.lat["load-warm"].record(time.Since(start), false)
		return s.bundle(p.key, sys, false, emit), "hit", nil
	}
	if b, ok := s.adoptArtifact(p.key); ok {
		return b, "adopt", nil
	}
	sys, hit, err := s.loadProgram(p)
	if err != nil {
		return nil, "", err
	}
	return s.bundle(p.key, sys, !hit, emit), cacheWord(hit), nil
}

// bundle renders a loaded program's bundle, with the emitted parallel
// source when emit asks for it or the bundle is published: after a cold
// load it goes to the blob tier, if there is one, so fleet peers adopt
// the analysis instead of repeating it. Publishing is best-effort: a
// full disk or an unreachable tier must not fail the request that
// loaded the program.
func (s *Server) bundle(key string, sys *commute.System, cold, emit bool) *api.ArtifactBundle {
	publish := cold && s.cfg.Blobs != nil
	b := &api.ArtifactBundle{
		Fingerprint:     key,
		Name:            sys.File.Name,
		ParallelMethods: sys.ParallelMethods(),
		LoopsFound:      sys.Plan.LoopsFound,
		LoopsSuppressed: sys.Plan.LoopsSuppressed,
		LoopsRefused:    sys.Plan.LoopsRefused,
	}
	for _, mr := range sys.Reports() {
		b.Methods = append(b.Methods, apiMethodReport(mr))
	}
	if emit || publish {
		b.ParallelSource = sys.Plan.EmitParallelSource(sys.File)
	}
	if publish {
		if data, err := api.EncodeArtifact(b); err == nil && s.cfg.Blobs.Put(key, data) == nil {
			s.published.Add(1)
		}
	}
	return b
}

// adoptArtifact reads the fingerprint's bundle from the blob tier and
// decodes it, timing both as load-adopt. Every adoption is checked: a
// corrupt or mislabeled blob is refused, and the caller falls back to a
// full load, which publishes a good bundle.
func (s *Server) adoptArtifact(key string) (*api.ArtifactBundle, bool) {
	if s.cfg.Blobs == nil {
		return nil, false
	}
	start := time.Now()
	data, err := s.cfg.Blobs.Get(key)
	if err != nil {
		return nil, false
	}
	b, err := api.DecodeArtifact(key, data)
	if err != nil {
		return nil, false
	}
	s.adoptions.Add(1)
	s.lat["load-adopt"].record(time.Since(start), false)
	return b, true
}

// analyzeFromBundle renders the /v1/analyze reply from a bundle, with
// its parallel source only when emit is set.
func analyzeFromBundle(b *api.ArtifactBundle, cacheWord string, emit bool, start time.Time) api.AnalyzeResponse {
	resp := api.AnalyzeResponse{
		Key:             b.Fingerprint,
		Cache:           cacheWord,
		Methods:         b.Methods,
		ParallelMethods: b.ParallelMethods,
		LoopsFound:      b.LoopsFound,
		LoopsSuppressed: b.LoopsSuppressed,
		LoopsRefused:    b.LoopsRefused,
	}
	if emit {
		resp.ParallelSource = b.ParallelSource
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp
}

// apiMethodReport renders one analysis report in the wire schema,
// including the synthesized conditional-commutativity predicate in
// both rendered and structured form.
func apiMethodReport(mr *core.MethodReport) api.MethodReport {
	return api.MethodReport{
		Method:             mr.Method.FullName(),
		Parallel:           mr.Parallel,
		Reason:             mr.Reason,
		ExtentSize:         mr.ExtentSize,
		AuxiliaryCallSites: mr.AuxiliaryCallSites,
		IndependentPairs:   mr.IndependentPairs,
		SymbolicPairs:      mr.SymbolicPairs,

		Confidence:          mr.Confidence,
		Condition:           mr.Condition,
		ConditionTree:       api.CondTree(mr.Pred),
		Guard:               cond.Render(mr.Guard),
		GuardTree:           api.CondTree(mr.Guard),
		ConditionalEligible: mr.ConditionalEligible,
		SpeculationEligible: mr.SpeculationEligible,
	}
}
