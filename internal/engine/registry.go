package engine

import (
	"fmt"
	"sort"
	"strings"

	"ssync/internal/core"
	"ssync/internal/mapping"
	"ssync/internal/pass"
)

// Built-in compiler names. The zero/empty Request.Compiler resolves to
// CompilerSSync. Each names a canned pass pipeline — see
// pass.BuiltinPipeline for the staged equivalents.
const (
	// CompilerMurali is the Murali et al. (ISCA 2020) baseline.
	CompilerMurali = "murali"
	// CompilerDai is the Dai et al. (IEEE TQE 2024) baseline.
	CompilerDai = "dai"
	// CompilerSSync is this repository's S-SYNC compiler.
	CompilerSSync = "ssync"
	// CompilerSSyncAnnealed is S-SYNC seeded with the simulated-annealing
	// first-level mapping (deterministic under Request.Anneal.Seed).
	CompilerSSyncAnnealed = "ssync-annealed"
)

// UnknownCompilerError reports a Request.Compiler that names no built-in
// compiler. Known carries the compiler names, sorted, so callers (and
// HTTP error bodies) can say what would have worked.
type UnknownCompilerError struct {
	Name  string
	Known []string
}

func (e *UnknownCompilerError) Error() string {
	return fmt.Sprintf("engine: unknown compiler %q (registered: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// Compilers returns the addressable compiler names, sorted. Every one
// names a canned pass pipeline (pass.BuiltinPipeline); a strategy beyond
// them is a pipeline of registered passes (pass.Register), addressed
// through Request.Pipeline.
func Compilers() []string {
	names, _ := pass.BuiltinPipelines()
	sort.Strings(names)
	return names
}

// Registered reports whether name (after empty-name normalisation) is
// addressable as a compiler.
func Registered(name string) bool {
	if name == "" {
		return true // resolves to CompilerSSync
	}
	_, canned := pass.BuiltinPipeline(name)
	return canned
}

// ssyncConfig resolves a request's S-SYNC configuration (nil means the
// paper defaults).
func ssyncConfig(req Request) core.Config {
	if req.Config != nil {
		return *req.Config
	}
	return core.DefaultConfig()
}

// annealConfig resolves a request's annealer configuration (nil means
// DefaultAnnealConfig, whose fixed Seed keeps results — and cache keys —
// deterministic).
func annealConfig(req Request) mapping.AnnealConfig {
	if req.Anneal != nil {
		return *req.Anneal
	}
	return mapping.DefaultAnnealConfig()
}
