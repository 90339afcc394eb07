// Shows each exactness oracle catches a corrupted output: it accepts the
// clean output and rejects one flipped label or one wrong served answer.

#pragma once

namespace perfbench {

// Returns 0 when every oracle behaves, 1 otherwise; prints one line per check.
int run_selftest();

}  // namespace perfbench
