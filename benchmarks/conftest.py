def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Keep each bench's statistics and extra_info, not its raw rounds.

    The medians and quartiles are what a comparison quotes; the raw
    samples of a sub-microsecond bench run to hundreds of thousands and
    make the file megabytes long.
    """
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
