package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const shedHandledDoc = `forbid discarding the error of pipeline admission calls

pipeline.Submit returns ErrShed (admission control refused the task)
or ErrClosed (the pipeline shut down) — both mean a supervision task
silently did not run. A caller that discards
the error turns deliberate, counted load shedding into a silent
coverage hole. The analyzer reports calls whose error result is
dropped: used as an expression statement, assigned to the blank
identifier, or launched via go/defer. Call sites where the shed is
accounted elsewhere (the pipeline's OnShed hook) are annotated in
place:

	//semalint:allow shedhandled: <reason>`

// ShedHandled is the shedhandled analyzer.
var ShedHandled = &analysis.Analyzer{
	Name:     "shedhandled",
	Doc:      shedHandledDoc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runShedHandled,
}

var (
	shedHandledPkg   = "semagent/internal/pipeline"
	shedHandledFuncs = "Submit"
)

func init() {
	ShedHandled.Flags.StringVar(&shedHandledPkg, "pipelinepkg", shedHandledPkg,
		"import path of the admission-controlled pipeline package")
	ShedHandled.Flags.StringVar(&shedHandledFuncs, "funcs", shedHandledFuncs,
		"comma-separated names of error-returning admission methods")
}

func runShedHandled(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == shedHandledPkg {
		return nil, nil // the pipeline's own internals move tasks freely
	}
	funcs := make(map[string]bool)
	for _, f := range strings.Split(shedHandledFuncs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			funcs[f] = true
		}
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		name, ok := admissionCallee(pass, call, funcs)
		if !ok {
			return true
		}
		parent := stack[len(stack)-2]
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.ReportRangef(call, "error of %s discarded: a shed or close (ErrShed/ErrClosed) means this task silently did not run — handle or count it", name)
		case *ast.GoStmt, *ast.DeferStmt:
			pass.ReportRangef(call, "error of %s unobservable from go/defer: a shed or close (ErrShed/ErrClosed) means this task silently did not run", name)
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if ast.Unparen(rhs) != call || i >= len(p.Lhs) {
					continue
				}
				if id, ok := p.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					pass.ReportRangef(call, "error of %s assigned to _: a shed or close (ErrShed/ErrClosed) means this task silently did not run — handle or count it", name)
				}
			}
		}
		return true
	})
	return nil, nil
}

// admissionCallee reports the printable name of an admission method
// call ("pipeline.Submit"), or ok=false for everything else.
func admissionCallee(pass *analysis.Pass, call *ast.CallExpr, funcs map[string]bool) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != shedHandledPkg || !funcs[fn.Name()] {
		return "", false
	}
	// Only error-returning calls matter.
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	hasErr := false
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			hasErr = true
		}
	}
	if !hasErr {
		return "", false
	}
	short := shedHandledPkg
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	return short + "." + fn.Name(), true
}
