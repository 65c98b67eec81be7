package interp

// StackHeight reports how many frames are live on the context's
// activation stack.
func (c *Ctx) StackHeight() int { return c.sp }

// Steps reports how many statements the context has counted.
func (c *Ctx) Steps() int64 { return c.steps }

// FreeFramesZero reports whether every frame above the stack's top has
// all-zero slots up to their capacity and no receiver.
func (c *Ctx) FreeFramesZero() bool {
	for _, fr := range c.frames[c.sp:] {
		for _, v := range fr.vars[:cap(fr.vars)] {
			if v != (Value{}) {
				return false
			}
		}
		if fr.this != nil {
			return false
		}
	}
	return true
}

// Code is the code the interpreter executes.
func (ip *Interp) Code() *Code { return ip.code }
