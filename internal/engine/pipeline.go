package engine

import (
	"context"
	"fmt"

	"ssync/internal/core"
	"ssync/internal/pass"
)

// exec is a resolved request: the pass pipeline it runs — the explicit
// Request.Pipeline or the canned expansion of a built-in compiler name.
type exec struct {
	// compiler is the resolved compiler name; "" for explicit pipelines,
	// which are addressed by their stages rather than a name.
	compiler string
	passes   []pass.Pass
	// names lists the pipeline's pass names, in order.
	names []string
}

// resolveExec validates and resolves a request to its execution plan
// without running anything. Both Engine.Do and RequestKey go through it,
// so a request is keyed exactly as it would execute — in particular a
// built-in compiler name and its equivalent explicit pipeline resolve to
// identical pass instances and therefore identical keys.
func resolveExec(req Request) (exec, error) {
	specs, name := req.Pipeline, ""
	if len(specs) > 0 {
		if req.Compiler != "" {
			return exec{}, fmt.Errorf(
				"engine: request %q sets both Compiler (%q) and Pipeline; choose one", req.Label, req.Compiler)
		}
	} else {
		name = req.Compiler
		if name == "" {
			name = CompilerSSync
		}
		var ok bool
		if specs, ok = pass.BuiltinPipeline(name); !ok {
			return exec{}, &UnknownCompilerError{Name: name, Known: Compilers()}
		}
	}
	passes, err := pass.Build(specs)
	if err != nil {
		return exec{}, err
	}
	return exec{compiler: name, passes: passes, names: passNames(passes)}, nil
}

func passNames(passes []pass.Pass) []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.Name()
	}
	return names
}

// newState seeds a pipeline State from the request.
func newState(req Request) *pass.State {
	return &pass.State{
		Source:  req.Circuit,
		Circuit: req.Circuit,
		Topo:    req.Topo,
		Config:  ssyncConfig(req),
		Anneal:  annealConfig(req),
	}
}

// run executes the resolved pipeline over a fresh State.
func (x exec) run(ctx context.Context, req Request) (*core.Result, error) {
	return pass.Run(ctx, x.passes, newState(req))
}
