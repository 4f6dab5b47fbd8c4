#include <atomic>
#include <mutex>
#include <thread>

#include "bench.h"
#include "serve/client.h"

namespace perfbench {
namespace {

constexpr const char* kHost = "127.0.0.1";

/// One exchange on an open connection, timed from the first byte sent to
/// the last byte parsed.
Sample Exchange(prox::serve::ClientConnection* conn, const Op& op, int id,
                int op_index) {
  Sample sample;
  sample.id = id;
  sample.kind = op.kind;
  sample.op_index = op_index;
  const std::string bytes = RequestBytes(op, id);
  sample.send_ns = NowNanos();
  if (!conn->SendRaw(bytes).ok()) return sample;
  prox::Result<prox::serve::ClientResponse> response = conn->ReadResponse();
  sample.recv_ns = NowNanos();
  if (!response.ok()) return sample;
  sample.transport_ok = true;
  sample.status = response.value().status;
  sample.cache = std::string(response.value().Header("x-prox-cache"));
  sample.body = std::move(response.value().body);
  return sample;
}

}  // namespace

std::vector<Sample> RunSequential(int port, const std::vector<Op>& ops,
                                  int id_base, std::string* error,
                                  std::atomic<int>* sent) {
  std::vector<Sample> out;
  if (ops.empty()) return out;
  prox::Result<prox::serve::ClientConnection> conn =
      prox::serve::ClientConnection::Connect(kHost, port, 60000);
  if (!conn.ok()) {
    *error = "connect: " + conn.status().ToString();
    return out;
  }
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (sent != nullptr) sent->fetch_add(1, std::memory_order_release);
    out.push_back(Exchange(&conn.value(), ops[i], id_base + static_cast<int>(i),
                           static_cast<int>(i)));
    if (!out.back().transport_ok) {
      *error = "connection failed at request " + std::to_string(i);
      break;
    }
  }
  return out;
}

LoadResult RunStream(int port, const Stream& stream) {
  LoadResult result;
  std::mutex mu;  // guards result.reads and result.error from readers
  // Writer calls sent so far; readers pace themselves on it.
  std::atomic<int> writer_calls{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> readers;
  std::atomic<int> next_read_id{kReaderIdBase};
  for (int r = 0; r < stream.readers; ++r) {
    readers.emplace_back([&, r] {
      prox::Result<prox::serve::ClientConnection> conn =
          prox::serve::ClientConnection::Connect(kHost, port, 60000);
      if (!conn.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        result.error = "reader connect: " + conn.status().ToString();
        return;
      }
      // Each reader's choice sequence is a function of (seed, reader).
      uint64_t state = stream.seed * 0x9E3779B97F4A7C15ULL + 77 + r;
      std::vector<Sample> mine;
      const int hits = static_cast<int>(stream.reads.size()) - 1;
      for (int j = 0; j < stream.reads_per_reader; ++j) {
        // Read j of reader r goes out `reader_think_ms` after writer call
        // 1 + stride * j + r was sent, so the reads spread over the whole
        // writer stream and the two readers never share one writer call.
        const int after_call = 1 + stream.reader_stride * j + r;
        while (writer_calls.load(std::memory_order_acquire) <= after_call &&
               !writer_done.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stream.reader_think_ms));
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const int choice =
            (state & 1) ? hits : static_cast<int>((state >> 1) % hits);
        mine.push_back(Exchange(&conn.value(), stream.reads[choice],
                                next_read_id.fetch_add(1), choice));
        if (!mine.back().transport_ok) {
          std::lock_guard<std::mutex> lock(mu);
          result.error = "reader connection failed";
          break;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (Sample& s : mine) result.reads.push_back(std::move(s));
    });
  }

  std::string writer_error;
  result.writer = RunSequential(port, stream.writer, 0, &writer_error,
                                &writer_calls);
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  if (!writer_error.empty()) result.error = writer_error;
  return result;
}

bool FetchOnce(int port, const std::string& method, const std::string& target,
               std::string* body, int* status) {
  prox::Result<prox::serve::ClientResponse> response =
      prox::serve::Fetch(kHost, port, method, target, "", 5000);
  if (!response.ok()) return false;
  *status = response.value().status;
  *body = std::move(response.value().body);
  return true;
}

}  // namespace perfbench
