#ifndef EDGERT_COMMON_FILEIO_HH
#define EDGERT_COMMON_FILEIO_HH

/**
 * @file
 * Checked whole-file writes for reports, metric snapshots and watch
 * artifacts. Opening a file is not the only way to fail: a full disk
 * (or /dev/full) accepts the open and the buffered write and only
 * fails at the flush or the close. Every report writer goes through
 * writeFileChecked() so such a failure exits non-zero with a
 * diagnostic instead of leaving a truncated file behind silently.
 */

#include <string>

namespace edgert {

/**
 * Replace the contents of `path` with `bytes`. fatal()s naming the
 * path and the OS error when the open, the write, the flush or the
 * close fails.
 */
void writeFileChecked(const std::string &path, const std::string &bytes);

} // namespace edgert

#endif // EDGERT_COMMON_FILEIO_HH
