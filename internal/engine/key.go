package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"ssync/internal/pass"
	"ssync/internal/qasm"
	"ssync/internal/store"
)

// Key content-addresses one compilation request. Two requests share a key
// exactly when their canonical OpenQASM, device layout, and execution
// plan — the full resolved pass pipeline with per-pass options and the
// configurations its passes read — coincide, so a key hit is a proof the
// cached schedule answers the new request. Built-in compiler names key
// as their canned pipelines, so Request.Compiler "ssync" and the
// equivalent explicit Request.Pipeline share one key.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyVersion tags the hash layout; bump it whenever the serialisation
// below changes so stale external key material can never alias.
// v4: the resolved configurations hash at the granularity the pipeline
// declares (pass.ConfigUse) — full scheduler config, mapping sub-config
// only, or none — instead of the v3 full-or-none rule, and the same
// serialisation now also produces the per-stage prefix chain
// (prefixKeys) behind the engine's stage cache.
const keyVersion = "ssync-req-v4"

// stageKeyVersion tags the prefix-key layout. Prefix keys live in their
// own hash domain, so a stage key can never alias a request key.
const stageKeyVersion = "ssync-stage-v1"

// RequestKey computes the content address of a request. The circuit
// enters via its canonical OpenQASM 2.0 rendering (qasm.Write), which is
// stable across gate-order-preserving re-parses; the topology enters via
// its name plus full trap/segment layout; the execution plan enters via
// the resolved pipeline — every pass name and canonical options
// signature, stage by stage. The S-SYNC/annealer configurations enter
// via their Go-syntax renderings (deterministic field order), at the
// granularity the pipeline's passes declare they read them
// (pass.ConfigUse).
func RequestKey(req Request) (Key, error) {
	x, err := resolveExec(req)
	if err != nil {
		return Key{}, err
	}
	return execKey(req, x, "")
}

// hashRequestBase writes the request's circuit and topology — the part
// of the content address every key form (request and stage prefix)
// shares — into h. qasmText is the circuit's canonical rendering when
// the caller already has it ("" renders here): one request needs the
// base for its request key plus every stage-prefix key, and qasm.Write
// is by far the most expensive ingredient, so callers render once and
// share.
func hashRequestBase(h hash.Hash, req Request, qasmText string) {
	if qasmText == "" {
		qasmText = qasm.Write(req.Circuit)
	}
	io.WriteString(h, "\x00qasm\x00")
	io.WriteString(h, qasmText)
	io.WriteString(h, "\x00topo\x00")
	// Length-prefix the free-form name so a crafted name can never alias
	// the trap/segment serialization that follows.
	fmt.Fprintf(h, "%d\x00%s", len(req.Topo.Name), req.Topo.Name)
	for _, tr := range req.Topo.Traps {
		fmt.Fprintf(h, "|t%d:%d", tr.ID, tr.Capacity)
	}
	for _, s := range req.Topo.Segments {
		fmt.Fprintf(h, "|s%d-%d:%d,%d:j%d:h%d", s.A, s.B, int(s.EndA), int(s.EndB), s.Junctions, s.Hops)
	}
}

// hashStages writes a pipeline (or pipeline prefix) into h: each pass
// name plus its canonical options signature (pass.Signature), each
// length-prefixed so crafted names cannot alias stage boundaries.
func hashStages(h hash.Hash, passes []pass.Pass) {
	io.WriteString(h, "\x00pipeline\x00")
	for _, p := range passes {
		name, sig := p.Name(), pass.Signature(p)
		fmt.Fprintf(h, "%d\x00%s%d\x00%s", len(name), name, len(sig), sig)
	}
}

// hashConfigs writes the resolved configurations into h at the
// granularity use declares: the full scheduler config when some stage
// reads scheduler knobs, the mapping sub-config alone when only
// placement stages read it, a fixed token otherwise — so a
// decompose→place prefix keeps one key across requests that vary
// scheduler knobs (ablation grids), and a baseline pipeline is not
// fragmented by an irrelevant Config or Anneal on the request.
func hashConfigs(h hash.Hash, req Request, use pass.ConfigUse) {
	io.WriteString(h, "\x00config\x00")
	switch {
	case use.Config:
		fmt.Fprintf(h, "full:%#v", ssyncConfig(req))
	case use.Mapping:
		fmt.Fprintf(h, "mapping:%#v", ssyncConfig(req).Mapping)
	default:
		io.WriteString(h, "none")
	}
	io.WriteString(h, "\x00anneal\x00")
	if use.Anneal {
		fmt.Fprintf(h, "%#v", annealConfig(req))
	} else {
		io.WriteString(h, "none")
	}
}

// execKey hashes a request against its already-resolved execution plan;
// Engine.Do uses it to key exactly what it will run without resolving
// twice. qasmText is the circuit's canonical rendering when already
// available ("" renders it).
func execKey(req Request, x exec, qasmText string) (Key, error) {
	var k Key
	if req.Circuit == nil || req.Topo == nil {
		return k, fmt.Errorf("engine: cannot key a request without circuit and topology")
	}
	h := sha256.New()
	io.WriteString(h, keyVersion)
	hashRequestBase(h, req, qasmText)
	hashStages(h, x.passes)
	hashConfigs(h, req, pass.PipelineUse(x.passes))
	h.Sum(k[:0])
	return k, nil
}

// prefixKeys computes the stage-prefix key chain of a pipeline
// execution: element i content-addresses the pipeline State at the
// boundary after stages 0..i — hash of the input circuit, the topology,
// the stage specs 0..i, and the configurations those stages read
// (cumulative pass.ConfigUse) — so any pipeline sharing that prefix
// (e.g. the same decompose→place under a different router) derives the
// same key and can resume from the cached snapshot. The chain covers
// boundaries 0..len-2; the final boundary is the finished result, which
// execKey addresses. Nil for single-stage pipelines.
func prefixKeys(req Request, x exec, qasmText string) []store.Key {
	if len(x.passes) < 2 || req.Circuit == nil || req.Topo == nil {
		return nil
	}
	if qasmText == "" {
		qasmText = qasm.Write(req.Circuit)
	}
	keys := make([]store.Key, len(x.passes)-1)
	for i := range keys {
		h := sha256.New()
		io.WriteString(h, stageKeyVersion)
		hashRequestBase(h, req, qasmText)
		hashStages(h, x.passes[:i+1])
		hashConfigs(h, req, pass.PipelineUse(x.passes[:i+1]))
		h.Sum(keys[i][:0])
	}
	return keys
}
