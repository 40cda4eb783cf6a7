// Package walorder enforces journal-before-ack inside internal/lifecycle:
// a mutation of the wrapped portfolio (AbsorbBuilding, ApplyLearned,
// RemoveMAC, ReplaceSystem, AddTraining, or a Classify call carrying
// WithAbsorb) must not be reachable while a WAL append error is
// unresolved. Three rules, checked statement-by-statement per function:
//
//   - Discarded journal error: calling Log.Append or a journal method as
//     a bare statement, or assigning its error to _, silently drops the
//     durability signal.
//   - Mutation on the error branch: inside the `err != nil` arm of a
//     pending journal error (or the else arm of `err == nil`), mutating
//     portfolio state means acking work the journal rejected.
//   - Mutation before the check: between the statement that captures the
//     journal error and the first statement that reads that error
//     expression, any portfolio mutation happens while durability is
//     unknown.
//
// The error expression is tracked textually (types.ExprString of the
// assignment target), so `errs[i] = m.journal(...)` followed by a read of
// errs[i] resolves cleanly. Nested blocks are analyzed with a copy of the
// pending set; function literals start fresh (they run on their own
// schedule). `return m.log.Append(rec)` propagates the error directly and
// is always fine.
package walorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the walorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "checks that lifecycle portfolio mutations are not reachable past an unresolved WAL append error",
	Run:  run,
}

// mutators are the portfolio state mutations journal-before-ack protects.
var mutators = map[string]bool{
	"AbsorbBuilding": true,
	"ApplyLearned":   true,
	"RemoveMAC":      true,
	"ReplaceSystem":  true,
	"AddTraining":    true,
}

func run(pass *analysis.Pass) error {
	if !applies(pass) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			analyzeStmts(pass, fn.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

// applies restricts the analyzer to the lifecycle package.
func applies(pass *analysis.Pass) bool {
	if pass.Pkg == nil {
		return false
	}
	path := pass.Pkg.Path()
	return pass.Pkg.Name() == "lifecycle" || strings.HasSuffix(path, "/lifecycle") || path == "lifecycle"
}

// pending maps the textual error expression of an unchecked journal
// append to the append's position.

// analyzeStmts walks one statement list in order, threading the pending
// set. Nested control flow recurses on a copy: resolution inside a branch
// does not leak out, which errs toward reporting.
func analyzeStmts(pass *analysis.Pass, stmts []ast.Stmt, pending map[string]token.Pos) {
	for _, stmt := range stmts {
		analyzeStmt(pass, stmt, pending)
	}
}

func analyzeStmt(pass *analysis.Pass, stmt ast.Stmt, pending map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			analyzeStmt(pass, s.Init, pending)
		}
		errKey, negated := errNilCond(s.Cond, pending)
		checkMutators(pass, exprStmtOnly(s.Cond), pending)
		if errKey != "" {
			delete(pending, errKey)
			if negated { // err != nil: Then is the error branch
				flagErrBranch(pass, s.Body, errKey)
				if s.Else != nil {
					analyzeStmt(pass, s.Else, copyPending(pending))
				}
			} else { // err == nil: Else is the error branch
				analyzeStmts(pass, s.Body.List, copyPending(pending))
				if els, ok := s.Else.(*ast.BlockStmt); ok {
					flagErrBranch(pass, els, errKey)
				} else if s.Else != nil {
					analyzeStmt(pass, s.Else, copyPending(pending))
				}
			}
			return
		}
		resolveReads(s.Cond, pending)
		analyzeStmts(pass, s.Body.List, copyPending(pending))
		if s.Else != nil {
			analyzeStmt(pass, s.Else, copyPending(pending))
		}
	case *ast.BlockStmt:
		analyzeStmts(pass, s.List, copyPending(pending))
	case *ast.ForStmt:
		if s.Init != nil {
			analyzeStmt(pass, s.Init, pending)
		}
		resolveReads(s.Cond, pending)
		analyzeStmts(pass, s.Body.List, copyPending(pending))
	case *ast.RangeStmt:
		resolveReads(s.X, pending)
		analyzeStmts(pass, s.Body.List, copyPending(pending))
	case *ast.SwitchStmt:
		if s.Init != nil {
			analyzeStmt(pass, s.Init, pending)
		}
		resolveReads(s.Tag, pending)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				analyzeStmts(pass, cc.Body, copyPending(pending))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				analyzeStmts(pass, cc.Body, copyPending(pending))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				analyzeStmts(pass, cc.Body, copyPending(pending))
			}
		}
	case *ast.AssignStmt:
		checkMutators(pass, s, pending)
		resolveReads(s, pending)
		recordJournal(pass, s, pending)
	case *ast.ExprStmt:
		checkMutators(pass, s, pending)
		resolveReads(s, pending)
		// A journal call whose error is never captured.
		if call := journalCall(pass, s.X); call != nil && !pass.Ann.Suppressed(call.Pos(), "walok") {
			pass.Reportf(call.Pos(), "WAL append error discarded; check the journal error before acknowledging the absorb")
		}
	default:
		checkMutators(pass, stmt, pending)
		resolveReads(stmt, pending)
		// Function literals run on their own schedule: analyze them fresh.
		ast.Inspect(stmt, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				analyzeStmts(pass, lit.Body.List, map[string]token.Pos{})
				return false
			}
			return true
		})
	}
}

// exprStmtOnly wraps an expression so checkMutators can scan it.
func exprStmtOnly(e ast.Expr) ast.Node {
	if e == nil {
		return nil
	}
	return e
}

func copyPending(pending map[string]token.Pos) map[string]token.Pos {
	cp := make(map[string]token.Pos, len(pending))
	for k, v := range pending {
		cp[k] = v
	}
	return cp
}

// recordJournal registers the error target of a journal assignment, or
// flags an assignment to the blank identifier.
func recordJournal(pass *analysis.Pass, s *ast.AssignStmt, pending map[string]token.Pos) {
	for i, rhs := range s.Rhs {
		call := journalCall(pass, rhs)
		if call == nil {
			continue
		}
		// The journal error is the matching (or last) assignment target.
		lhs := s.Lhs[len(s.Lhs)-1]
		if len(s.Rhs) == len(s.Lhs) {
			lhs = s.Lhs[i]
		}
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			if !pass.Ann.Suppressed(call.Pos(), "walok") {
				pass.Reportf(call.Pos(), "WAL append error assigned to _; check the journal error before acknowledging the absorb")
			}
			continue
		}
		pending[types.ExprString(lhs)] = call.Pos()
	}
}

// journalCall returns the call if expr is a WAL append: a method named
// Append on a receiver of type Log or from a wal package, or any method
// named journal.
func journalCall(pass *analysis.Pass, expr ast.Expr) *ast.CallExpr {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if sel.Sel.Name == "journal" {
		return call
	}
	if sel.Sel.Name != "Append" {
		return nil
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	pkg := obj.Pkg()
	fromWAL := pkg != nil && (pkg.Name() == "wal" || strings.HasSuffix(pkg.Path(), "/wal"))
	if obj.Name() != "Log" && !fromWAL {
		return nil
	}
	return call
}

// errNilCond matches `<pending> != nil` / `<pending> == nil` conditions.
// negated is true for !=. Returns "" when cond is not an error check on a
// pending journal error.
func errNilCond(cond ast.Expr, pending map[string]token.Pos) (key string, negated bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return "", false
	}
	x, y := bin.X, bin.Y
	if id, ok := x.(*ast.Ident); ok && id.Name == "nil" {
		x, y = y, x
	}
	if id, ok := y.(*ast.Ident); !ok || id.Name != "nil" {
		return "", false
	}
	k := types.ExprString(x)
	if _, isPending := pending[k]; !isPending {
		return "", false
	}
	return k, bin.Op == token.NEQ
}

// flagErrBranch reports every portfolio mutation inside the error branch
// of a failed journal append.
func flagErrBranch(pass *analysis.Pass, body *ast.BlockStmt, errKey string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call := mutatorCall(pass, n); call != nil && !pass.Ann.Suppressed(call.Pos(), "walok") {
			pass.Reportf(call.Pos(), "portfolio mutation on the error branch of journal append (%s failed); the WAL rejected this operation", errKey)
		}
		return true
	})
}

// checkMutators reports portfolio mutations reached while any journal
// error is still pending.
func checkMutators(pass *analysis.Pass, n ast.Node, pending map[string]token.Pos) {
	if n == nil || len(pending) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if call := mutatorCall(pass, node); call != nil && !pass.Ann.Suppressed(call.Pos(), "walok") {
			pass.Reportf(call.Pos(), "portfolio mutation before the journal append error is checked (journal-before-ack)")
		}
		return true
	})
}

// mutatorCall returns the call if node mutates wrapped portfolio state:
// a named mutator method, or a Classify call carrying WithAbsorb.
func mutatorCall(pass *analysis.Pass, node ast.Node) *ast.CallExpr {
	call, ok := node.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	if mutators[name] {
		return call
	}
	if strings.HasPrefix(name, "Classify") && mentionsWithAbsorb(call) {
		return call
	}
	return nil
}

// mentionsWithAbsorb reports whether any argument references the
// WithAbsorb option.
func mentionsWithAbsorb(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "WithAbsorb" {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// resolveReads deletes every pending journal error whose expression text
// appears anywhere in n: once the error is read, durability was checked
// (or at least observed) and the window closes.
func resolveReads(n ast.Node, pending map[string]token.Pos) {
	if n == nil || len(pending) == 0 {
		return
	}
	resolveReadsExpr := func(e ast.Expr) {
		s := types.ExprString(e)
		for k := range pending {
			if strings.Contains(s, k) {
				delete(pending, k)
			}
		}
	}
	switch s := n.(type) {
	case ast.Expr:
		resolveReadsExpr(s)
	case *ast.AssignStmt:
		// Reads happen on the RHS and in indexed LHS targets.
		for _, e := range s.Rhs {
			resolveReadsExpr(e)
		}
	default:
		ast.Inspect(n, func(node ast.Node) bool {
			if e, ok := node.(ast.Expr); ok {
				resolveReadsExpr(e)
				return false
			}
			return true
		})
	}
}
