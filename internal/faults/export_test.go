package faults

// Disarm removes every rule at site.
func (in *Injector) Disarm(site string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, site)
}
