package lint

import (
	"go/ast"
)

// goroutineAllowed are the packages that may use bare go statements:
// internal/proc owns the Thread abstraction that makes goroutines reapable,
// and internal/transport's delivery workers are tracked by the transport's
// in-flight count (Quiesce and Stop wait on it). (Test files are never
// loaded.)
var goroutineAllowed = map[string]bool{
	"mrpc/internal/proc":      true,
	"mrpc/internal/transport": true,
}

// checkGoroutineDiscipline flags bare go statements. Goroutines spawned via
// proc.Go carry a Thread handle (Kill requests termination, Done reports
// exit), so crash injection and shutdown paths can reap them; a bare go
// statement is invisible to both.
func checkGoroutineDiscipline(_ *Analysis, p *Package) []Diagnostic {
	if !inScope(p.Path) || goroutineAllowed[p.Path] {
		return nil
	}
	var ds []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				ds = append(ds, Diagnostic{
					Pos:  p.Fset.Position(g.Pos()),
					Rule: "goroutine-discipline",
					Message: "bare go statement; spawn through proc.Go " +
						"so the goroutine can be reaped",
				})
			}
			return true
		})
	}
	return ds
}
