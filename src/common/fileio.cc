#include "common/fileio.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace edgert {

void
writeFileChecked(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot write '", path, "': ", std::strerror(errno));
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size() &&
              std::fflush(f) == 0;
    int err = ok ? 0 : errno;
    if (std::fclose(f) != 0 && ok) {
        ok = false;
        err = errno;
    }
    if (!ok)
        fatal("cannot write '", path, "': ", std::strerror(err));
}

} // namespace edgert
