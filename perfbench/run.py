#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload spec-exact --seed 1 --seconds 20 --trace 0

The script builds the benchmark driver and the repro-serve daemon from the
checkout's sources into the build directory ($CARGO_TARGET_DIR, else
.bench_build), with every Go cache, temporary and home directory inside it,
and with every $REPRO_* knob cleared. It then runs the driver, whose last
line of standard output is the JSON result. See perfbench/README.md.
"""
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "GO", "XDG_"))}
    env.update({
        "HOME": home,
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    bindir = os.path.join(build, "bin")
    driver = os.path.join(bindir, "perfbench")
    daemon = os.path.join(bindir, "repro-serve")
    for out, pkg in ((driver, "."), (daemon, "repro/cmd/repro-serve")):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=HERE, env=env,
                           stdout=sys.stderr)
        if r.returncode != 0:
            print("perfbench: building %s failed" % pkg, file=sys.stderr)
            return 1
    # The driver runs in its own session so that any process it leaves
    # behind on a crash (a fuzz process, a daemon) is killed with the group
    # below.
    p = subprocess.Popen([driver, "--workdir", build, "--serve-bin", daemon] + sys.argv[1:],
                         cwd=ROOT, env=env, start_new_session=True)
    try:
        code = p.wait()
    finally:
        reap_group(p.pid)
    return code


def reap_group(pgid):
    """Kill whatever is left of the driver's process group and wait until
    the group is empty."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
