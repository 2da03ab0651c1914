#include "common/cliflags.hh"

#include <cstdarg>
#include <cstdio>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edgert {

bool
FlagParser::next()
{
    if (i_ + 1 >= argc_)
        return false;
    i_++;
    arg_ = argv_[i_];
    inline_value_.reset();
    if (arg_.rfind("--", 0) == 0) {
        std::size_t eq = arg_.find('=');
        if (eq != std::string::npos) {
            inline_value_ = arg_.substr(eq + 1);
            arg_ = arg_.substr(0, eq);
        }
    }
    return true;
}

bool
FlagParser::isOption() const
{
    return arg_.rfind("--", 0) == 0;
}

std::string
FlagParser::value()
{
    if (inline_value_) {
        // One value per flag: consume it so a stray second call is
        // a missing-value diagnostic, not a silent repeat.
        std::string v = *inline_value_;
        inline_value_.reset();
        return v;
    }
    if (i_ + 1 >= argc_)
        fatal("missing value for ", arg_);
    return argv_[++i_];
}

double
FlagParser::numberValue()
{
    std::string v = value();
    auto r = parseDouble(v);
    if (!r.ok())
        fatal("invalid value '", v, "' for ", arg_, ": ",
              r.status().message());
    return *r;
}

std::int64_t
FlagParser::intValue()
{
    std::string v = value();
    auto r = parseInt64(v);
    if (!r.ok())
        fatal("invalid value '", v, "' for ", arg_, ": ",
              r.status().message());
    return *r;
}

std::uint64_t
FlagParser::unsignedValue()
{
    std::string v = value();
    auto r = parseUint64(v);
    if (!r.ok())
        fatal("invalid value '", v, "' for ", arg_, ": ",
              r.status().message());
    return *r;
}

int
FlagParser::positiveValue()
{
    std::uint64_t n = unsignedValue();
    if (n < 1)
        fatal("invalid value '", n, "' for ", arg_,
              ": must be at least 1");
    return static_cast<int>(n);
}

std::string
FlagParser::choiceValue(std::initializer_list<const char *> choices)
{
    std::string v = value();
    std::string expected;
    for (const char *c : choices) {
        if (v == c)
            return v;
        expected += (expected.empty() ? "" : "|") + std::string(c);
    }
    fatal("invalid value '", v, "' for ", arg_, ": expected ", expected);
}

double
specNumber(const std::string &flag, const std::string &key,
           const std::string &value)
{
    auto r = parseDouble(value);
    if (!r.ok())
        fatal("bad ", flag, " option '", key, "=", value,
              "': ", r.status().message());
    return *r;
}

int
specInt(const std::string &flag, const std::string &key,
        const std::string &value)
{
    auto r = parseInt64(value);
    if (!r.ok())
        fatal("bad ", flag, " option '", key, "=", value,
              "': ", r.status().message());
    return static_cast<int>(*r);
}

ModelSpec::ModelSpec(std::string flag_name, const std::string &spec)
    : flag(std::move(flag_name))
{
    auto parts = split(spec, ':');
    if (parts.empty() || parts[0].empty())
        fatal("empty ", flag, " spec");
    model = parts[0];
    auto at = model.find('@');
    if (at != std::string::npos) {
        precision = model.substr(at + 1);
        model.resize(at);
        if (model.empty())
            fatal("empty model name in ", flag, " spec '", spec, "'");
    }
    for (std::size_t i = 1; i < parts.size(); i++) {
        auto eq = parts[i].find('=');
        if (eq == std::string::npos)
            fatal("bad ", flag, " option '", parts[i],
                  "' (expected key=value)");
        options.emplace_back(parts[i].substr(0, eq),
                             parts[i].substr(eq + 1));
    }
}

void
ModelSpec::unknown(const std::string &key) const
{
    fatal("unknown ", flag, " option '", key, "'");
}

int
runCli(int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const FatalError &) {
        return 1;
    }
}

void
say(const char *fmt, ...)
{
    if (logLevel() > LogLevel::kInfo)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
}

} // namespace edgert
