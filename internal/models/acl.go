package models

import (
	"context"
	"fmt"
	"sync"
)

// Permission levels on deployed models (§5: "Models can be assigned
// security permissions to grant access or modification rights to database
// users"). The owner implicitly holds every permission.
type Permission uint8

const (
	// PermRead allows loading the model and running prediction functions.
	PermRead Permission = iota
	// PermModify allows dropping or replacing the model (implies read).
	PermModify
)

// String names the permission.
func (p Permission) String() string {
	if p == PermModify {
		return "MODIFY"
	}
	return "READ"
}

// acl tracks per-model grants. Owner is recorded at deploy time.
type acl struct {
	mu     sync.RWMutex
	owner  map[string]string                // model -> owner
	grants map[string]map[string]Permission // model -> user -> perm
	public map[string]bool                  // model -> readable by all
}

func newACL() *acl {
	return &acl{
		owner:  map[string]string{},
		grants: map[string]map[string]Permission{},
		public: map[string]bool{},
	}
}

func (a *acl) register(model, owner string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.owner[model] = owner
	// Deploys default to public-read: any database user can predict, as
	// with the paper's shared R_Models catalog; Restrict() tightens this.
	a.public[model] = true
}

func (a *acl) forget(model string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.owner, model)
	delete(a.grants, model)
	delete(a.public, model)
}

func (a *acl) grant(model, user string, p Permission) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.grants[model]
	if !ok {
		g = map[string]Permission{}
		a.grants[model] = g
	}
	g[user] = p
}

func (a *acl) revoke(model, user string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.grants[model], user)
}

func (a *acl) restrict(model string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.public[model] = false
}

// allowed reports whether user holds permission p on model. Empty user
// means an internal/administrative caller and is always allowed.
func (a *acl) allowed(model, user string, p Permission) bool {
	if user == "" {
		return true
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.owner[model] == user {
		return true
	}
	if p == PermRead && a.public[model] {
		return true
	}
	g, ok := a.grants[model][user]
	if !ok {
		return false
	}
	return g >= p
}

// Grant gives user the permission on a deployed model. Only the owner (or
// an administrative caller with empty granter) may grant.
func (m *Manager) Grant(ctx context.Context, model, granter, user string, p Permission) error {
	if exists, err := m.exists(ctx, model); err != nil || !exists {
		if err != nil {
			return err
		}
		return fmt.Errorf("models: model %q does not exist", model)
	}
	if granter != "" && m.acl.ownerOf(model) != granter {
		return fmt.Errorf("models: only the owner may grant on %q", model)
	}
	m.acl.grant(model, user, p)
	return nil
}

// Revoke removes a user's grant.
func (m *Manager) Revoke(model, granter, user string) error {
	if granter != "" && m.acl.ownerOf(model) != granter {
		return fmt.Errorf("models: only the owner may revoke on %q", model)
	}
	m.acl.revoke(model, user)
	return nil
}

// Restrict turns off default public-read: only the owner and explicit
// grantees can use the model afterwards.
func (m *Manager) Restrict(model, caller string) error {
	if caller != "" && m.acl.ownerOf(model) != caller {
		return fmt.Errorf("models: only the owner may restrict %q", model)
	}
	m.acl.restrict(model)
	return nil
}

func (a *acl) ownerOf(model string) string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.owner[model]
}

// LoadAs fetches a model enforcing read permission for user.
func (m *Manager) LoadAs(name string, node int, user string) (any, string, error) {
	if !m.acl.allowed(name, user, PermRead) {
		return nil, "", fmt.Errorf("models: user %q lacks READ on model %q", user, name)
	}
	return m.Load(name, node)
}

// DropAs drops a model enforcing modify permission for user.
func (m *Manager) DropAs(ctx context.Context, name, user string) error {
	if !m.acl.allowed(name, user, PermModify) {
		return fmt.Errorf("models: user %q lacks MODIFY on model %q", user, name)
	}
	return m.Drop(ctx, name)
}
