package netstack

// PoolBuffers returns the number of idle buffers in s's frame pool.
func (s *Stack) PoolBuffers() int {
	n := 0
	for _, c := range s.pool.class {
		n += len(c)
	}
	return n
}
