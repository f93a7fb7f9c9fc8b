/**
 * @file
 * Test-only scoped guard for tests that assert ResultStore hits.
 * harness::storeEligible bypasses the store while any of MPC_VALIDATE,
 * MPC_OBS, MPC_TRACE, MPC_SAMPLE or MPC_VERIFY_PASSES is set, because
 * those layers must attach to a real simulation. A store test run
 * under one of them (CI's validated and verified-pass integration
 * steps) would then never see a hit. The guard unsets the five
 * variables for its lifetime and restores their values on exit.
 */

#ifndef MPC_TESTS_STORE_ENV_HH
#define MPC_TESTS_STORE_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mpc::test
{

class StoreEnvGuard
{
  public:
    StoreEnvGuard()
    {
        for (const char *name : {"MPC_VALIDATE", "MPC_OBS", "MPC_TRACE",
                                 "MPC_SAMPLE", "MPC_VERIFY_PASSES"}) {
            std::optional<std::string> value;
            if (const char *v = std::getenv(name))
                value = v;
            saved_.emplace_back(name, std::move(value));
            ::unsetenv(name);
        }
    }

    ~StoreEnvGuard()
    {
        for (const auto &[name, value] : saved_)
            if (value)
                ::setenv(name, value->c_str(), 1);
    }

    StoreEnvGuard(const StoreEnvGuard &) = delete;
    StoreEnvGuard &operator=(const StoreEnvGuard &) = delete;

  private:
    std::vector<std::pair<const char *, std::optional<std::string>>>
        saved_;
};

} // namespace mpc::test

#endif // MPC_TESTS_STORE_ENV_HH
