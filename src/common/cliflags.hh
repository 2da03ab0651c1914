#ifndef EDGERT_COMMON_CLIFLAGS_HH
#define EDGERT_COMMON_CLIFLAGS_HH

/**
 * @file
 * The one `--opt value` / `--opt=value` argument scanner shared by
 * the EdgeRT command-line drivers (edgertexec, edgertserve,
 * edgertdeploy). Each driver used to carry its own copy of the
 * inline-value splitting and the strict numeric parsing; this class
 * is that logic, extracted verbatim:
 *
 *     FlagParser flags(argc, argv);
 *     while (flags.next()) {
 *         if (flags.is("--model"))
 *             model = flags.value();
 *         else if (flags.is("--runs"))
 *             runs = static_cast<int>(flags.intValue());
 *         else
 *             ... unknown option ...
 *     }
 *
 * Values may be inline (`--runs=5`) or the next argv entry
 * (`--runs 5`). Numeric accessors go through the strict
 * common/strutil parsers and fatal() with a diagnostic naming the
 * flag — a malformed value must exit non-zero with a message, never
 * surface as an uncaught std::sto* exception. Tokens that do not
 * start with `--` (subcommands, positional operands) come through
 * arg() unsplit.
 *
 * The serving CLIs also share the `--model` spec grammar
 * (ModelSpec), the strict `key=value` number parsers behind it and
 * their `say` progress printer.
 */

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace edgert {

/** Sequential argv scanner with --opt=value splitting. */
class FlagParser
{
  public:
    FlagParser(int argc, char **argv) : argc_(argc), argv_(argv) {}

    /** Advance to the next argument; false when argv is exhausted. */
    bool next();

    /** Current option name (inline `=value` stripped), or the raw
     *  token for non-option arguments. */
    const std::string &arg() const { return arg_; }

    /** True when the current argument is exactly `name`. */
    bool is(const char *name) const { return arg_ == name; }

    /** True when the current token starts with "--". */
    bool isOption() const;

    /**
     * The current option's value: the inline `=value` if present,
     * otherwise the next argv entry (consumed). fatal()s when
     * neither exists.
     */
    std::string value();

    /** value() parsed as a strict double; fatal()s on a malformed
     *  value, naming the flag. */
    double numberValue();

    /** value() parsed as a strict signed integer. */
    std::int64_t intValue();

    /** value() parsed as a strict unsigned integer. */
    std::uint64_t unsignedValue();

    /** unsignedValue() that must be at least 1 (a count). */
    int positiveValue();

    /** value() that must be one of `choices`; fatal()s listing
     *  them. */
    std::string choiceValue(std::initializer_list<const char *> choices);

  private:
    int argc_;
    char **argv_;
    int i_ = 0; //!< argv index of the current argument
    std::string arg_;
    std::optional<std::string> inline_value_;
};

/**
 * Strict number in the `key=value` option of a `flag` spec; fatal()s
 * with "bad <flag> option '<key>=<value>': <reason>".
 */
double specNumber(const std::string &flag, const std::string &key,
                  const std::string &value);

/** Strict integer in a `key=value` option; same diagnostics. */
int specInt(const std::string &flag, const std::string &key,
            const std::string &value);

/**
 * One `<zoo-name>[@precision][:key=value]...` spec: the `--model`
 * grammar of the serving CLIs, which keep only their own key table:
 *
 *     ModelSpec spec("--model", text);
 *     mc.model = spec.model;
 *     for (const auto &[k, v] : spec.options)
 *         if (k == "qps")
 *             mc.arrivals.qps = spec.number(k, v);
 *         else
 *             spec.unknown(k);
 *
 * The constructor fatal()s on an empty spec, an empty model name and
 * an option without '='.
 */
struct ModelSpec
{
    ModelSpec(std::string flag, const std::string &spec);

    std::string flag;      //!< the option it came from, for diagnostics
    std::string model;     //!< zoo name (before '@')
    std::string precision; //!< after '@' ("" = not given)
    std::vector<std::pair<std::string, std::string>> options;

    double number(const std::string &key, const std::string &v) const
    {
        return specNumber(flag, key, v);
    }
    int integer(const std::string &key, const std::string &v) const
    {
        return specInt(flag, key, v);
    }

    /** fatal() on an option key outside the caller's table. */
    [[noreturn]] void unknown(const std::string &key) const;
};

/**
 * A command-line tool's main(): run `body` and return its status, or
 * 1 when it fatal()s. fatal() has already printed the diagnostic, so
 * a bad flag, config or input file exits non-zero instead of
 * aborting.
 */
int runCli(int (*body)(int, char **), int argc, char **argv);

/** Progress chatter on stdout (printf-style); silent when the log
 *  level is above info, i.e. under --quiet. */
void say(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace edgert

#endif // EDGERT_COMMON_CLIFLAGS_HH
