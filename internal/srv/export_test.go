package srv

// In the package's test build every released frame buffer is filled
// with 0xDB (see poisonRecycled), so any test that reads a buffer after
// its owner let go sees wrong bytes instead of passing by luck.
func init() { poisonRecycled = true }

// ErrCode and MaxEname open the Rerror mapping to the external tests.
var ErrCode = errCode

const MaxEname = maxEname
