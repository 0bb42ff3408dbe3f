package dr

// Alive lists the ids of workers that have not failed, sorted.
func (c *Cluster) Alive() []int {
	var out []int
	for _, w := range c.workers {
		if !w.Dead() {
			out = append(out, w.id)
		}
	}
	return out
}
