// Fixture: session churn that rebuilds per-session state with raw
// new/malloc, once per session. Owning containers and the arena hold such
// state without a hand-paired delete/free.
#include <cstdint>
#include <cstdlib>

struct Session {
  std::uint8_t* scratch = nullptr;
};

void churn(std::size_t cycles, std::size_t bytes) {
  for (std::size_t i = 0; i < cycles; ++i) {
    auto* session = new Session;                   // finding: raw new
    session->scratch =
        static_cast<std::uint8_t*>(std::malloc(bytes));  // finding: malloc
    session->scratch[0] = 1;
    std::free(session->scratch);
    delete session;
  }
}
