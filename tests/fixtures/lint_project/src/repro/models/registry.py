"""Model registry of the fixture project."""

from .models import GoodModel, ListParamModel


def _good() -> GoodModel:
    return GoodModel(4)


MODEL_REGISTRY = {
    "good": _good,
    "list-params": ListParamModel,
}
