"""Service quickstart: a daemon, two concurrent tenants, a warm re-run.

Starts a :class:`ChefService` in a background thread (in production
you'd run ``python -m repro.service serve --socket ... &``), then:

- runs TWO sessions of the same branchy Clay target *concurrently*
  through the daemon and shows that their path-event multisets are
  identical to each other — the per-tenant determinism contract.  Each
  session explores serially inside the daemon process;
- runs the same target again (a "warm" tenant) and shows that it
  produces the identical path-event multiset.

Run:  python examples/service_quickstart.py
"""

import tempfile
import threading
import time

from repro.bench.workloads import branchy_source
from repro.service import ChefService, ServiceClient, ServiceConfig
from repro.service.protocol import path_event_multiset

workdir = tempfile.mkdtemp(prefix="repro-service-")
config = ServiceConfig(
    socket_path=f"{workdir}/repro.sock",
    max_sessions=8,
    max_time_budget=60.0,
)
service = ChefService(config)
threading.Thread(target=service.serve_forever, daemon=True).start()

client = ServiceClient(config.socket_path)
while True:  # wait for the socket to come up
    try:
        client.ping()
        break
    except OSError:
        time.sleep(0.05)

source = branchy_source(4)  # 16 feasible paths

# -- two concurrent tenants ----------------------------------------------------
outcomes = {}


def tenant(tag: str) -> None:
    events, result = client.run(clay=source)
    outcomes[tag] = (path_event_multiset(events), result)


threads = [threading.Thread(target=tenant, args=(t,)) for t in ("alice", "bob")]
for t in threads:
    t.start()
for t in threads:
    t.join()

(alice_paths, alice_result), (bob_paths, bob_result) = (
    outcomes["alice"],
    outcomes["bob"],
)
assert alice_paths == bob_paths, "per-tenant determinism contract"
print(
    f"concurrent tenants: {alice_result['ll_paths']} paths each, "
    f"identical path multisets"
)

# -- a warm third run repeats the same multiset --------------------------------
warm_events, warm_result = client.run(clay=source)
assert path_event_multiset(warm_events) == alice_paths, "warm run diverged"
metrics = client.stats()["metrics"]
print(f"warm run: {warm_result['ll_paths']} paths, identical path multiset")
print(f"sessions/sec so far: {metrics['service.sessions_per_sec']:.2f}")

client.shutdown()
