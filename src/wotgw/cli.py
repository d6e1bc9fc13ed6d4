"""Command line front end: gateway, device sim, bench runner, report compare.

Exit codes: 0 on success, 2 for usage or configuration errors (bad flags,
unreadable config, a listen address already in use), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import sys
import threading

from wotgw import codec, device
from wotgw.config import ConfigError, GatewayConfig, format_hostport, load_config
from wotgw.gateway import Gateway

log = logging.getLogger("wotgw.cli")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wotgw", description="Web-of-Things gateway tools")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gw = sub.add_parser("gateway", help="run the gateway")
    p_gw.add_argument("--config", required=True, help="gateway config file (JSON or key=value lines)")

    p_sim = sub.add_parser("sim", help="run a simulated device")
    p_sim.add_argument("--bind", default="127.0.0.1:0", help="listen address, host:port or [v6]:port")
    p_sim.add_argument("--readings", help="JSON file of power readings to serve")
    p_sim.add_argument("--mapping", help="key mapping file (text or JSON)")
    p_sim.add_argument("--latency-ms", type=float, default=0.0, help="added delay per request")
    p_sim.add_argument("--failure-rate", type=float, default=0.0,
                       help="probability of dropping a request with a reset")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed for failure injection")
    p_sim.add_argument("--power-save-idle-s", type=float, default=30.0,
                       help="idle seconds before the device naps (0 disables)")
    p_sim.add_argument("--wake-latency-ms", type=float, default=100.0,
                       help="extra delay for the first request after a nap")

    p_bench = sub.add_parser("bench", help="run a benchmark scenario")
    p_bench.add_argument("--scenario", required=True,
                         help="builtin scenario name or path to a scenario JSON file")
    p_bench.add_argument("--out", help="write the report as JSON to this path")

    p_cmp = sub.add_parser("compare", help="compare two benchmark reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    return parser


def _run_forever(stop_hint: str) -> None:
    print(stop_hint, file=sys.stderr)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass


def _cmd_gateway(args) -> int:
    try:
        config: GatewayConfig = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"wotgw: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        gateway = Gateway(config).start()
    except OSError as exc:
        if exc.errno in (errno.EADDRINUSE, errno.EACCES):
            addr = _blamed_address(config)
            print(f"wotgw: cannot bind {addr}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        log.exception("gateway failed to start")
        return EXIT_RUNTIME
    except (ConfigError, ValueError, codec.MappingError) as exc:
        print(f"wotgw: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for family in ("v4", "v6"):
        addr = gateway.listen_address(family)
        if addr:
            print(f"listening {family} on {format_hostport(*addr)}", file=sys.stderr)
    _run_forever("gateway ready; Ctrl-C stops it")
    gateway.stop()
    return EXIT_OK


def _blamed_address(config: GatewayConfig) -> str:
    candidates = [config.listen_v4, config.listen_v6,
                  config.socks_listen_v4, config.socks_listen_v6]
    return ", ".join(format_hostport(*a) for a in candidates if a is not None)


def _cmd_sim(args) -> int:
    from wotgw.config import parse_hostport

    try:
        host, port = parse_hostport(args.bind)
        readings = device.DEFAULT_READINGS
        if args.readings:
            with open(args.readings, encoding="utf-8") as fh:
                readings = device.load_readings(fh.read())
        mapping = device.POWER_SENSOR_MAPPING
        if args.mapping:
            mapping = codec.load_mapping_file(args.mapping)
        sim = device.DeviceSimulator(
            bind=(host, port),
            readings=readings,
            mapping=mapping,
            base_latency=args.latency_ms / 1000.0,
            failure_rate=args.failure_rate,
            seed=args.seed,
            power_save_idle=args.power_save_idle_s,
            wake_latency=args.wake_latency_ms / 1000.0,
        )
    except (ConfigError, ValueError, codec.MappingError, OSError) as exc:
        print(f"wotgw: sim setup error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sim.start()  # the constructor has bound the address
    print(f"device listening on {format_hostport(*sim.address)}", file=sys.stderr)
    _run_forever("sim ready; Ctrl-C stops it")
    sim.stop()
    return EXIT_OK


def _cmd_bench(args) -> int:
    from wotgw import bench as benchmod  # loads http.client, which `wotgw gateway` and `wotgw sim` never need

    try:
        scenario = benchmod.load_scenario(args.scenario)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"wotgw: scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = benchmod.run_scenario(scenario)
    except Exception as exc:  # the stack is torn down by run_scenario
        log.exception("bench run failed")
        print(f"wotgw: bench failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for key, value in sorted(report.to_dict().items()):
        print(f"{key}: {value}")
    if args.out:
        try:
            benchmod.write_report(report, args.out)
        except OSError as exc:
            print(f"wotgw: cannot write report: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    return EXIT_OK


def _cmd_compare(args) -> int:
    from wotgw import bench as benchmod

    try:
        a = benchmod.load_report(args.report_a)
        b = benchmod.load_report(args.report_b)
    except (ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"wotgw: cannot load reports: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(benchmod.format_comparison(a, b))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    handler = {
        "gateway": _cmd_gateway,
        "sim": _cmd_sim,
        "bench": _cmd_bench,
        "compare": _cmd_compare,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
