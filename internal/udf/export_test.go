package udf

import "sort"

// Names lists registered function names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.funcs))
	for k := range r.funcs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
