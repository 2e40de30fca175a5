"""Documentation contract: the README/docstring quickstart really runs."""


class TestQuickstartContract:
    def test_package_quickstart(self):
        """The snippet in repro/__init__ must execute verbatim (scaled down)."""
        from repro import TaxoRec, TrainConfig, evaluate, load_preset, temporal_split

        split = temporal_split(load_preset("ciao", scale=0.15))
        model = TaxoRec(
            split.train,
            TrainConfig(dim=16, tag_dim=4, epochs=3, batch_size=256, lr=1.0, seed=0),
        )
        model.fit(split)
        result = evaluate(model, split, on="test")
        assert 0.0 <= result.recall_at_10 <= 1.0

    def test_public_symbols_importable(self):
        import repro

        for symbol in repro.__all__:
            assert getattr(repro, symbol, None) is not None

    def test_version_string(self):
        import repro

        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_taxonomy_render_documented_usage(self):
        """README shows model.taxonomy.render(tag_names) after fit."""
        from repro import TaxoRec, TrainConfig, load_preset, temporal_split

        split = temporal_split(load_preset("ciao", scale=0.15))
        model = TaxoRec(
            split.train,
            TrainConfig(dim=16, tag_dim=4, epochs=7, batch_size=256, lr=1.0, seed=0),
        )
        model.fit(split)
        text = model.taxonomy.render(tag_names=split.train.tag_names)
        assert "level-0" in text
