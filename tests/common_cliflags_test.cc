/**
 * @file
 * The `--model` spec grammar the serving CLIs share: name/precision
 * splitting, key=value options, and diagnostics that name the flag
 * and the offending key.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/cliflags.hh"
#include "common/logging.hh"

namespace edgert {
namespace {

using Options = std::vector<std::pair<std::string, std::string>>;

struct SpecCase
{
    std::string spec;
    std::string model;     //!< expected on success
    std::string precision; //!< expected on success
    Options options;       //!< expected on success
    std::string error;     //!< non-empty: expected fatal() text
};

const std::vector<SpecCase> kSpecCases = {
    {"resnet-18", "resnet-18", "", {}, ""},
    {"resnet-18@int8:qps=800:slo_ms=15", "resnet-18", "int8",
     {{"qps", "800"}, {"slo_ms", "15"}}, ""},
    {"tiny-yolov3@mixed", "tiny-yolov3", "mixed", {}, ""},
    {"googlenet:max_batch=16:arrival=bursty", "googlenet", "",
     {{"max_batch", "16"}, {"arrival", "bursty"}}, ""},
    {"", "", "", {}, "empty --model spec"},
    {":qps=1", "", "", {}, "empty --model spec"},
    {"@int8:qps=1", "", "", {},
     "empty model name in --model spec '@int8:qps=1'"},
    {"resnet-18:qps", "", "", {},
     "bad --model option 'qps' (expected key=value)"},
};

TEST(ModelSpec, GrammarTable)
{
    for (const SpecCase &c : kSpecCases) {
        SCOPED_TRACE("spec '" + c.spec + "'");
        if (!c.error.empty()) {
            try {
                ModelSpec spec("--model", c.spec);
                ADD_FAILURE() << "expected fatal: " << c.error;
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(c.error),
                          std::string::npos)
                    << e.what();
            }
            continue;
        }
        ModelSpec spec("--model", c.spec);
        EXPECT_EQ(spec.model, c.model);
        EXPECT_EQ(spec.precision, c.precision);
        EXPECT_EQ(spec.options, c.options);
    }
}

/** The fatal() text of `fn`, or "" when it returns normally. */
template <typename Fn>
std::string
fatalText(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(ModelSpec, UnknownKeyNamesTheFlag)
{
    ModelSpec spec("--model", "resnet-18:colour=red");
    EXPECT_NE(fatalText([&] { spec.unknown("colour"); })
                  .find("unknown --model option 'colour'"),
              std::string::npos);
}

TEST(ModelSpec, MalformedNumbersNameTheFlagAndTheKey)
{
    ModelSpec spec("--model", "resnet-18:qps=8x0:max_batch=4.5");
    EXPECT_DOUBLE_EQ(ModelSpec("--model", "m:qps=1e3").number("qps", "1e3"),
                     1000.0);
    std::string bad_qps = fatalText([&] { spec.number("qps", "8x0"); });
    EXPECT_NE(bad_qps.find("bad --model option 'qps=8x0'"),
              std::string::npos)
        << bad_qps;
    std::string bad_batch =
        fatalText([&] { spec.integer("max_batch", "4.5"); });
    EXPECT_NE(bad_batch.find("bad --model option 'max_batch=4.5'"),
              std::string::npos)
        << bad_batch;
    // Other specs reuse the number parsers under their own flag.
    std::string bad_node =
        fatalText([] { specInt("--fail", "node", "x"); });
    EXPECT_NE(bad_node.find("bad --fail option 'node=x'"),
              std::string::npos)
        << bad_node;
}

} // namespace
} // namespace edgert
