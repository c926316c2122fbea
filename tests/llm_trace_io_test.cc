/**
 * @file
 * Tests for trace CSV import/export and the speculative draft-cost
 * and KV-append extensions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/decode_engine.hh"
#include "core/platform.hh"
#include "llm/trace_io.hh"
#include "pim/attention_engine.hh"
#include "sim/logging.hh"

namespace {

namespace llm = papi::llm;
namespace core = papi::core;
namespace pim = papi::pim;
using papi::sim::FatalError;

TEST(TraceIo, TimedRoundTrip)
{
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 50.0, 3);
    auto trace = arrivals.generate(32);

    std::stringstream buf;
    llm::writeTraceCsv(buf, trace);
    auto loaded = llm::readTraceCsv(buf);

    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].request.id, trace[i].request.id);
        EXPECT_EQ(loaded[i].request.inputLen,
                  trace[i].request.inputLen);
        EXPECT_EQ(loaded[i].request.outputLen,
                  trace[i].request.outputLen);
        EXPECT_NEAR(loaded[i].arrivalSeconds,
                    trace[i].arrivalSeconds, 1e-6);
    }
}

TEST(TraceIo, UntimedTraceLoadsWithZeroArrivals)
{
    std::stringstream buf;
    std::vector<llm::Request> reqs{{1, 10, 20, 0}, {2, 30, 40, 0}};
    llm::writeTraceCsv(buf, reqs);
    auto loaded = llm::readTraceCsv(buf);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(loaded[0].arrivalSeconds, 0.0);
    EXPECT_EQ(loaded[1].request.inputLen, 30u);
}

TEST(TraceIo, MalformedInputIsFatal)
{
    {
        std::stringstream buf("wrong,header\n1,2,3\n");
        EXPECT_THROW(llm::readTraceCsv(buf), FatalError);
    }
    {
        std::stringstream buf("id,input_len,output_len\n1,2\n");
        EXPECT_THROW(llm::readTraceCsv(buf), FatalError);
    }
    {
        std::stringstream buf("id,input_len,output_len\n1,2,0\n");
        EXPECT_THROW(llm::readTraceCsv(buf), FatalError); // zero out
    }
    {
        std::stringstream buf(
            "id,input_len,output_len\n1,2,3\n1,4,5\n");
        EXPECT_THROW(llm::readTraceCsv(buf), FatalError); // dup id
    }
    {
        std::stringstream buf(
            "id,input_len,output_len,arrival_s\n"
            "1,2,3,5.0\n2,2,3,1.0\n");
        EXPECT_THROW(llm::readTraceCsv(buf), FatalError); // unsorted
    }
    {
        std::stringstream buf("");
        EXPECT_THROW(llm::readTraceCsv(buf), FatalError);
    }
    // A '-' in an unsigned field used to wrap around (input_len
    // 4,294,967,291; id 2^64 - 1), and trailing text after the last
    // field used to be ignored.
    for (const char *row : {"1,-5,3,0.0", "1,5,-3,0.0", "-1,5,3,0.0",
                            "1,5,3,0.0xyz"}) {
        std::stringstream buf(std::string("id,input_len,output_len,"
                                          "arrival_s\n") +
                              row + "\n");
        try {
            llm::readTraceCsv(buf, "bad.csv");
            ADD_FAILURE() << "accepted '" << row << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "bad.csv:2: malformed row"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceIo, AcceptsWhitespaceAndExponentArrivals)
{
    std::stringstream buf("id,input_len,output_len,arrival_s\n"
                          " 1, 5, 3, 1e-3 \n"
                          "2,+6,4,2.5e-1\r\n");
    auto t = llm::readTraceCsv(buf);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].request.inputLen, 5u);
    EXPECT_DOUBLE_EQ(t[0].arrivalSeconds, 1e-3);
    EXPECT_EQ(t[1].request.inputLen, 6u);
    EXPECT_DOUBLE_EQ(t[1].arrivalSeconds, 0.25);
}

TEST(TraceIo, MalformedInputErrorsCiteSourceAndLine)
{
    // Row 3 (line 3 counting the header) is the malformed one; the
    // error must cite it as "source:line" so a bad multi-thousand
    // row trace file is debuggable.
    std::stringstream buf(
        "id,input_len,output_len\n1,2,3\n2,oops,5\n");
    try {
        llm::readTraceCsv(buf, "bad.csv");
        FAIL() << "malformed row did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.csv:3"),
                  std::string::npos)
            << "error lacks source:line context: " << e.what();
    }
    // The default source tag marks in-memory streams.
    std::stringstream buf2("id,input_len,output_len\n1,2,0\n");
    try {
        llm::readTraceCsv(buf2);
        FAIL() << "zero output length did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("<trace>:2"),
                  std::string::npos)
            << "error lacks source:line context: " << e.what();
    }
    // File loads cite the path.
    const std::string path =
        ::testing::TempDir() + "papi_trace_malformed.csv";
    {
        std::ofstream out(path);
        out << "id,input_len,output_len\n1,2,3\n1,9,9\n";
    }
    try {
        llm::loadTraceFile(path);
        FAIL() << "duplicate id did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path + ":3"),
                  std::string::npos)
            << "error lacks file:line context: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(TraceIo, FileRoundTripAndErrors)
{
    std::string path = ::testing::TempDir() + "papi_trace_test.csv";
    llm::ArrivalProcess arrivals(llm::TraceCategory::GeneralQa,
                                 10.0, 1);
    auto trace = arrivals.generate(8);
    llm::saveTraceFile(path, trace);
    auto loaded = llm::loadTraceFile(path);
    EXPECT_EQ(loaded.size(), trace.size());
    std::remove(path.c_str());
    EXPECT_THROW(llm::loadTraceFile("/nonexistent/trace.csv"),
                 FatalError);
}

TEST(DraftCost, ChargedOnlyWhenSpeculating)
{
    core::Platform papi(core::makePapiConfig());
    core::DecodeEngine engine(papi);
    llm::ModelConfig model = llm::llama65b();
    llm::TraceGenerator gen(llm::TraceCategory::Uniform, 1);

    core::RunOptions opt;
    opt.includePrefill = false;

    llm::SpeculativeConfig free_draft;
    free_draft.length = 4;
    llm::SpeculativeConfig costly_draft;
    costly_draft.length = 4;
    costly_draft.draftCostFraction = 0.2;

    llm::Batch b1(gen.generateUniform(8, 64, 32), model);
    llm::Batch b2(gen.generateUniform(8, 64, 32), model);
    core::RunResult r_free = engine.run(b1, free_draft, model, opt);
    core::RunResult r_cost = engine.run(b2, costly_draft, model,
                                        opt);
    EXPECT_GT(r_cost.seconds(), r_free.seconds() * 1.1);
    EXPECT_EQ(r_cost.iterations, r_free.iterations);

    // Serial decoding never pays draft cost.
    llm::SpeculativeConfig serial;
    serial.draftCostFraction = 0.2;
    llm::Batch b3(gen.generateUniform(8, 64, 32), model);
    llm::Batch b4(gen.generateUniform(8, 64, 32), model);
    llm::SpeculativeConfig serial_free;
    core::RunResult r_serial_cost =
        engine.run(b3, serial, model, opt);
    core::RunResult r_serial_free =
        engine.run(b4, serial_free, model, opt);
    EXPECT_DOUBLE_EQ(r_serial_cost.seconds(),
                     r_serial_free.seconds());
}

TEST(KvAppend, WriteTimeChargedInAttention)
{
    pim::AttentionEngine engine(pim::attnPimConfig());
    auto r = engine.run(64 * 1024, 4, 1000);
    EXPECT_GT(r.kvWriteSeconds, 0.0);
    // The append is small next to the stream.
    EXPECT_LT(r.kvWriteSeconds, r.gemvSeconds * 0.05);
    // And grows with TLP.
    auto r8 = engine.run(64 * 1024, 8, 1000);
    EXPECT_GT(r8.kvWriteSeconds, r.kvWriteSeconds);
}

} // namespace
