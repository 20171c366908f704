package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Lockdiscipline flags channel sends made while holding a mutex: the
// ack path of a shard must never block on a slow consumer while holding
// shared state. Copied locks are go vet's copylocks check, and a plain
// write to a typed atomic (the only atomics the tree uses) does not
// compile, so those shapes need no rule here.
var Lockdiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no channel send while holding a mutex",
	Run:  runLockdiscipline,
}

func runLockdiscipline(pass *Pass) {
	for _, file := range pass.Files {
		for _, fd := range funcScopes(file) {
			checkSendUnderLock(pass, fd)
		}
	}
}

// checkSendUnderLock flags channel sends lexically between a mutex Lock
// and its matching Unlock (a deferred Unlock holds to function end). A
// send can block indefinitely on a slow receiver; doing so while holding
// a lock stalls every other path through the guarded state — in pmserve
// terms, one dead client freezes the ack path of the whole server.
func checkSendUnderLock(pass *Pass, fd *ast.FuncDecl) {
	type interval struct {
		recv     string
		from, to token.Pos
	}
	var held []interval
	unlocks := make(map[string][]token.Pos) // recv -> Unlock/RUnlock positions
	deferred := make(map[string]bool)       // recv with deferred unlock
	recvOf := func(sel string) string { return sel[:strings.LastIndexByte(sel, '.')] }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if sel, ok := lockCall(pass.Info, n.Call, "Unlock", "RUnlock"); ok {
				deferred[recvOf(sel)] = true
			}
		case *ast.CallExpr:
			if sel, ok := lockCall(pass.Info, n, "Lock", "RLock"); ok {
				held = append(held, interval{recv: recvOf(sel), from: n.Pos(), to: fd.Body.End()})
			} else if sel, ok := lockCall(pass.Info, n, "Unlock", "RUnlock"); ok {
				unlocks[recvOf(sel)] = append(unlocks[recvOf(sel)], n.Pos())
			}
		}
		return true
	})
	if len(held) == 0 {
		return
	}
	for i, iv := range held {
		if deferred[iv.recv] {
			continue
		}
		for _, u := range unlocks[iv.recv] {
			if u > iv.from && u < held[i].to {
				held[i].to = u
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		for _, iv := range held {
			if send.Pos() > iv.from && send.Pos() < iv.to {
				pass.Reportf(send.Pos(),
					"%s sends on a channel while holding %s; a blocked receiver would stall everyone contending for the lock", funcName(fd), iv.recv)
				break
			}
		}
		return true
	})
}
