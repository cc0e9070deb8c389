package lint

import (
	"go/ast"
	"strings"
)

// sharedUpdaters are mf functions that write shared factor slices on
// behalf of the caller. Calling one from a goroutine is exactly the
// Hogwild pattern, so it is held to the same quarantine as a direct
// shared-slice write.
var sharedUpdaters = map[string]bool{
	"TrainEntries": true,
	"TrainEntry":   true,
	"trainPair":    true,
}

// RaceGuard keeps Hogwild's intentional data races quarantined — now
// across the whole module, not just package mf. A goroutine that calls a
// shared-factor updater (TrainEntries/TrainEntry/trainPair, unqualified
// inside mf or as mf.TrainEntries from any other package, resolved
// through the module's import index) is flagged unless something marks the race as
// intentional: the file or enclosing function references raceflag — the
// package that gates those paths under the race detector — or a per-site
// "lint:allow raceguard <reason>" covers a write that is disjoint by
// construction rather than racy. Inside package mf, goroutine closures
// that write captured (shared) slices by index are additionally flagged.
//
// Resolution is purely syntactic but module-aware: `go func(){...}`
// literals are inspected directly, and `go worker(...)` on a named
// function — same package through the package index, `pkg.Worker`
// across packages through the module index — follows one level into the
// worker's body. A worker that calls a shared-factor updater is held to
// the same quarantine unless its own file or doc references raceflag.
// The point is that every NEW concurrent write path to the shared
// factors, wherever it is launched from, must either declare itself
// Hogwild (reference raceflag) or justify itself.
var RaceGuard = &Analyzer{
	Name: "raceguard",
	Doc: "flag goroutines that reach shared-factor updaters (directly, via closures, or " +
		"through workers followed cross-package) outside raceflag-referencing files/functions",
	Run: runRaceGuard,
}

func runRaceGuard(pass *Pass) error {
	inMF := pass.Pkg.Name == "mf"
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.IsTestFile(f) || fileReferencesRaceflag(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Doc != nil && strings.Contains(fd.Doc.Text(), "raceflag") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineBody(pass, f, lit, inMF)
					return true
				}
				checkGoroutineTarget(pass, f, g)
				return true
			})
		}
	}
	return nil
}

// checkGoroutineTarget handles `go worker(...)` on a named function: the
// updater itself launched directly, or a worker — resolved same-package
// or cross-package through the module index — whose body calls one. The
// worker's own file or doc referencing raceflag quarantines it (the
// worker-pool files declare their Hogwild nature where the sweep loop
// lives).
func checkGoroutineTarget(pass *Pass, f *ast.File, g *ast.GoStmt) {
	if name := updaterCallIn(pass.Module, pass.Pkg, f, g.Call); name != "" {
		pass.ReportRangef(f, g,
			"goroutine calls shared-factor updater %s; Hogwild paths must reference raceflag (file or function doc) to stay quarantined",
			name)
		return
	}
	ref := resolveGoTarget(pass, f, g)
	if ref == nil {
		return
	}
	if fileReferencesRaceflag(ref.File) {
		return
	}
	if ref.Decl.Doc != nil && strings.Contains(ref.Decl.Doc.Text(), "raceflag") {
		return
	}
	calls := ""
	ast.Inspect(ref.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := updaterCallIn(pass.Module, ref.Pkg, ref.File, call); name != "" {
				calls = name
				return false
			}
		}
		return calls == ""
	})
	if calls != "" {
		pass.ReportRangef(f, g,
			"goroutine worker %s calls shared-factor updater %s; quarantine the worker behind raceflag or justify with lint:allow raceguard",
			workerLabel(pass, ref), calls)
	}
}

// resolveGoTarget resolves the function a go statement launches — a plain
// identifier through the package index, a pkg.Worker selector through the
// module index. Method values and shadowed names resolve to nil.
func resolveGoTarget(pass *Pass, f *ast.File, g *ast.GoStmt) *FuncRef {
	switch fun := g.Call.Fun.(type) {
	case *ast.Ident:
		if obj := fun.Obj; obj != nil && obj.Kind != ast.Fun && obj.Kind != ast.Bad {
			return nil
		}
		return pass.Pkg.Func(fun.Name)
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := id.Obj; obj != nil && obj.Kind != ast.Pkg && obj.Kind != ast.Bad {
			return nil
		}
		if p := pass.Module.ImportedPackage(f, id.Name); p != nil {
			return p.Func(fun.Sel.Name)
		}
	}
	return nil
}

// workerLabel renders the followed worker for a finding message,
// package-qualified when the go statement crossed a package boundary.
func workerLabel(pass *Pass, ref *FuncRef) string {
	if ref.Pkg == pass.Pkg {
		return ref.Decl.Name.Name
	}
	return ref.Pkg.Name + "." + ref.Decl.Name.Name
}

// updaterCallIn reports the shared-factor updater a call invokes, as seen
// from file f of package pkg: an unqualified TrainEntries/TrainEntry/trainPair
// inside package mf itself, or a selector that resolves through f's
// imports to a loaded package named mf declaring the function. Returns ""
// for anything else (including locally shadowed names).
func updaterCallIn(mod *Module, pkg *Package, f *ast.File, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if pkg.Name != "mf" || !sharedUpdaters[fun.Name] {
			return ""
		}
		if obj := fun.Obj; obj != nil && obj.Kind != ast.Fun && obj.Kind != ast.Bad {
			return ""
		}
		return fun.Name
	case *ast.SelectorExpr:
		if !sharedUpdaters[fun.Sel.Name] {
			return ""
		}
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return ""
		}
		if obj := id.Obj; obj != nil && obj.Kind != ast.Pkg && obj.Kind != ast.Bad {
			return ""
		}
		if p := mod.ImportedPackage(f, id.Name); p != nil && p.Name == "mf" && p.Func(fun.Sel.Name) != nil {
			return id.Name + "." + fun.Sel.Name
		}
	}
	return ""
}

// fileReferencesRaceflag reports whether the file imports raceflag, names
// it in an identifier, or discusses it in a comment. Any of the three
// marks the file's concurrency as deliberate Hogwild territory.
func fileReferencesRaceflag(f *ast.File) bool {
	if ImportName(f, "hccmf/internal/raceflag") != "" {
		return true
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "raceflag" {
			found = true
			return false
		}
		return !found
	})
	if found {
		return true
	}
	for _, cg := range f.Comments {
		if strings.Contains(cg.Text(), "raceflag") {
			return true
		}
	}
	return false
}

// checkGoroutineBody flags shared writes inside one `go func(){...}`
// body: updater calls from any package, captured-slice index writes only
// inside package mf (where the shared factor slices live).
func checkGoroutineBody(pass *Pass, f *ast.File, lit *ast.FuncLit, inMF bool) {
	// A goroutine that takes a lock is presumed to guard its writes.
	locked := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			locked = true
			return false
		}
		return !locked
	})
	if locked {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if !inMF {
				return true
			}
			for _, lhs := range n.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if base, captured := capturedBase(idx.X, lit); captured {
					pass.Reportf(f, idx.Pos(),
						"goroutine writes captured slice %s[...] without synchronization; quarantine behind raceflag or justify with lint:allow raceguard",
						base)
				}
			}
		case *ast.CallExpr:
			if name := updaterCallIn(pass.Module, pass.Pkg, f, n); name != "" {
				pass.Reportf(f, n.Pos(),
					"goroutine calls shared-factor updater %s; Hogwild paths must reference raceflag (file or function doc) to stay quarantined",
					name)
			}
		}
		return true
	})
}

// capturedBase resolves the leftmost identifier of a slice expression and
// reports whether it is declared outside the function literal (captured,
// hence shared between goroutines). Unresolvable identifiers — package
// level declarations or names from other files — count as captured.
func capturedBase(x ast.Expr, lit *ast.FuncLit) (string, bool) {
	for {
		switch e := x.(type) {
		case *ast.SelectorExpr:
			x = e.X
			continue
		case *ast.IndexExpr:
			x = e.X
			continue
		case *ast.ParenExpr:
			x = e.X
			continue
		case *ast.Ident:
			if e.Obj == nil {
				return e.Name, true
			}
			if d, ok := e.Obj.Decl.(ast.Node); ok {
				inside := d.Pos() >= lit.Pos() && d.End() <= lit.End()
				return e.Name, !inside
			}
			return e.Name, true
		default:
			return "", false
		}
	}
}
